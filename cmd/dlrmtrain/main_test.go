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
// accounts for every moved line in CHANGES.md. serve_batch_fail covers
// batching together with a replica kill, retries, hedging and shedding.
func TestServeGolden(t *testing.T) {
	testGolden(t, []struct{ golden, args string }{
		{"serve_default.golden", "-serve"},
		{"serve_cluster2x2.golden", "-serve -topology cluster2x2"},
		{"serve_flash.golden", "-serve -arrival flash:20000:10 -class High"},
		{"serve_batch1.golden", "-serve -serve-batch 1"},
		{"serve_batch_fail.golden", "-serve -router hitaware-telemetry -replicas 4 -topology cluster2x2 " +
			"-arrival flash:20000:10:0.3:0.2 -serve-batch 8 -serve-fail replica1@0.07 -retry 3:2 -hedge 5 " +
			"-admission newest:0.75 -deadline 50"},
	})
}

// TestTrainGolden pins the training report the same way: metadata runs
// on the two-host cluster under exact and hier coordination (the
// coordination and message-plane lines of each), a functional approx run
// with a host death, checkpoints and a reshard boundary (the loss,
// resharding, fault and checkpoint blocks), and a metadata hier run with
// overlapped coordination and a host death (the overlap outcome line
// under faults).
func TestTrainGolden(t *testing.T) {
	testGolden(t, []struct{ golden, args string }{
		{"train_exact.golden", "-functional=false -shards 4 -topology cluster2x2 -coord exact -iters 12 -rows 20000"},
		{"train_hier.golden", "-functional=false -shards 4 -topology cluster2x2 -coord hier -iters 12 -rows 20000"},
		{"train_approx_fail.golden", "-iters 12 -rows 20000 -shards 4 -topology cluster2x2 -coord approx " +
			"-fail host1@6 -ckpt-interval 4 -reshard 3:4"},
		{"train_hier_overlap_fail.golden", "-functional=false -shards 4 -topology cluster2x2 -coord hier -coord-overlap " +
			"-fail host1@5 -ckpt-interval 4"},
	})
}

// testGolden runs dlrmtrain with each case's arguments in a child process
// and compares its stdout with testdata/<golden> (or re-records it under
// -update).
func testGolden(t *testing.T, cases []struct{ golden, args string }) {
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

// TestBadInput checks that bad run flags exit with status 2 and a
// one-line error naming the flag, never a panic or a run.
func TestBadInput(t *testing.T) {
	for _, c := range []struct{ flag, args string }{
		{"shards", "-shards -1"},
		{"topology", "-topology bogus"},
		{"fail", "-fail host1@5"},
		{"deadline", "-deadline -1"},
		{"serve-fail", "-serve -serve-fail replica9@0.1"},
		{"router", "-router random"},
		{"coord", "-coord batched"},
		{"policy", "-policy lfu -topology cluster2x2 -fail host1@5"},
		{"policy", "-policy lfu -reshard 3:1"},
	} {
		t.Run(c.flag, func(t *testing.T) {
			args := append([]string{"-functional=false", "-iters", "8", "-rows", "20000"}, strings.Fields(c.args)...)
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Fatalf("dlrmtrain %s: exit %d (%v), want 2\n%s", c.args, code, err, stderr.Bytes())
			}
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.Contains(first, "-"+c.flag) {
				t.Errorf("dlrmtrain %s: first stderr line %q does not name -%s", c.args, first, c.flag)
			}
			if s := stderr.String(); strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
				t.Errorf("dlrmtrain %s: stderr has a panic:\n%s", c.args, s)
			}
		})
	}
}
