package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/output.golden from the current output")

// runMainEnv marks a re-executed test binary that should behave as the
// example program itself.
const runMainEnv = "SERVING_STUDY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the study's whole printout byte for byte: the routing
// policy sweep across arrival shapes, the replica-count scaling with its
// $/1M-query prices, and the topology tier ladder. The study's own
// acceptance check (hit-aware beats random routing on hit rate and p99)
// still hard-fails the re-executed program, which fails this test. A
// change that means to move an output re-records with `go test -update`
// and accounts for every moved line in CHANGES.md.
func TestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("serving_study: %v\n%s", err, stderr.Bytes())
	}
	path := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("serving_study drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
