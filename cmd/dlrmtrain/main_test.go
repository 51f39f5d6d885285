package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record the golden files under testdata/ from the current output")

// runMainEnv marks a re-executed test binary that should behave as the
// dlrmtrain command itself.
const runMainEnv = "DLRMTRAIN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfileFlags checks that -cpuprofile and -memprofile each write a
// non-empty profile of a short training run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	cmd := exec.Command(os.Args[0], "-functional=false", "-iters", "8", "-rows", "20000",
		"-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dlrmtrain: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat: %v)", path, err)
		}
	}
}

// TestServeGolden pins the serving CLI baselines that refactors of
// internal/serve must leave byte-identical: the whole command — flag
// parsing, the simulation, the report rendering — runs in a child
// process and its stdout is compared with the checked-in file. A change
// that means to move an output re-records with `go test -update` and
// accounts for every moved line in CHANGES.md.
func TestServeGolden(t *testing.T) {
	cases := []struct{ golden, args string }{
		{"serve_default.golden", "-serve"},
		{"serve_cluster2x2.golden", "-serve -topology cluster2x2"},
		{"serve_flash.golden", "-serve -arrival flash:20000:10 -class High"},
		{"serve_batch1.golden", "-serve -serve-batch 1"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(c.args)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("dlrmtrain %s: %v\n%s", c.args, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
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
				t.Errorf("dlrmtrain %s drifted from %s:\n--- got\n%s--- want\n%s", c.args, path, got, want)
			}
		})
	}
}
