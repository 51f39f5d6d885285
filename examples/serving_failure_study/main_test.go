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
const runMainEnv = "SERVING_FAILURE_STUDY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the study's whole printout byte for byte: the
// resilience-stack sweep under a mid flash-crowd replica kill and the
// fault-plan sweep with its availability vs $/1M-good-queries frontier.
// Killed replicas rebuild their single-shard scratchpad managers
// (shard.New, a Reset on a zero manager), so the golden also pins the
// S=1 manager's Reset. The
// study's own acceptance checks (conservation on every report, and
// retry+failover beating the no-retry client on goodput) still
// hard-fail the re-executed program, which fails this test. A change
// that means to move an output re-records with `go test -update` and
// accounts for every moved line in CHANGES.md.
func TestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("serving_failure_study: %v\n%s", err, stderr.Bytes())
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
		t.Errorf("serving_failure_study drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
