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
const runMainEnv = "FAILURE_STUDY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the study's whole printout byte for byte: every
// fault schedule x coordination protocol x checkpoint interval row's
// availability, cost, downtime, recovery time, lost residency and
// frontier mark. It runs -iters 90 -rows 20000 (the defaults are 120
// and 200000) to keep the sweep to a few seconds; 90 iterations still
// reach every fault in the heavy schedule, the host death at 80
// included. A change that means to move an output re-records with
// `go test -update` and accounts for every moved line in CHANGES.md.
func TestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-iters", "90", "-rows", "20000")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("failure_study: %v\n%s", err, stderr.Bytes())
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
		t.Errorf("failure_study drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
