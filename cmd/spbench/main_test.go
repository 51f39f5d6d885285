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
// spbench command itself.
const runMainEnv = "SPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSpbench runs the whole command — flag parsing, the sweep, the table
// rendering — in a child process and returns its stdout.
func runSpbench(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("spbench %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestProfileFlags checks that -cpuprofile and -memprofile each write a
// non-empty profile and leave the printed output unchanged.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	plain := runSpbench(t, "-quick", "-experiment", "fig6classes")
	profiled := runSpbench(t, "-quick", "-experiment", "fig6classes", "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plain, profiled) {
		t.Errorf("profiling changed the output:\n--- with profiles\n%s--- without\n%s", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat: %v)", path, err)
		}
	}
}

// TestQuickGolden pins the quick Figure 12b, Figure 13, serving and
// §VI-E sensitivity tables byte for byte, plus Figure 13 at four shards
// on the two-host cluster under hier coordination, with and without a
// mid-sweep host death (the forked sweep that resets sharded managers),
// and Figure 12b's per-stage table in that configuration with
// overlapped coordination (whose plan column is the critical share),
// with and without the host death, and Figure 12b at that shape under
// approx coordination and under hier with a host-link partition (the
// degraded protocol): every simulated number they print is a function
// of the seed, so a refactor or optimisation of the simulator must
// leave them untouched. A change that means to move an output
// re-records with `go test -update` and accounts for every moved line
// in CHANGES.md.
func TestQuickGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fig12b", []string{"-experiment", "fig12b"}},
		{"fig13", []string{"-experiment", "fig13"}},
		{"serving", []string{"-experiment", "serving"}},
		{"sensitivity", []string{"-experiment", "sensitivity"}},
		{"fig13_s4_hier", []string{"-experiment", "fig13", "-shards", "4", "-topology", "cluster2x2", "-coord", "hier"}},
		{"fig13_s4_hier_fail", []string{"-experiment", "fig13", "-shards", "4", "-topology", "cluster2x2", "-coord", "hier",
			"-fail", "host1@5", "-ckpt-interval", "4"}},
		{"fig12b_s4_hier_overlap", []string{"-experiment", "fig12b", "-shards", "4", "-topology", "cluster2x2", "-coord", "hier",
			"-coord-overlap"}},
		{"fig12b_s4_hier_overlap_fail", []string{"-experiment", "fig12b", "-shards", "4", "-topology", "cluster2x2", "-coord", "hier",
			"-coord-overlap", "-fail", "host1@5", "-ckpt-interval", "4"}},
		{"fig12b_s4_approx", []string{"-experiment", "fig12b", "-shards", "4", "-topology", "cluster2x2", "-coord", "approx"}},
		{"fig12b_s4_hier_partition", []string{"-experiment", "fig12b", "-shards", "4", "-topology", "cluster2x2", "-coord", "hier",
			"-fail", "link:host0-host1@3-6"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-quick"}, tc.args...)
			got := runSpbench(t, args...)
			path := filepath.Join("testdata", "quick_"+tc.name+".golden")
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
				t.Errorf("spbench %s drifted from %s:\n--- got\n%s--- want\n%s", strings.Join(args, " "), path, got, want)
			}
		})
	}
}

// TestBadInput checks that bad run flags exit with status 2 and a
// one-line error naming the flag, never a panic or a run.
func TestBadInput(t *testing.T) {
	for _, c := range []struct{ flag, args string }{
		{"shards", "-shards -1"},
		{"shards", "-shards 70000"},
		{"topology", "-topology bogus"},
		{"fail", "-fail host1@5"},
		{"deadline", "-deadline -1"},
		{"serve-fail", "-serve -serve-fail replica9@0.1"},
		{"router", "-router random"},
		{"coord", "-coord batched"},
	} {
		t.Run(c.flag, func(t *testing.T) {
			args := append([]string{"-quick", "-experiment", "fig6classes"}, strings.Fields(c.args)...)
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Fatalf("spbench %s: exit %d (%v), want 2\n%s", c.args, code, err, stderr.Bytes())
			}
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.Contains(first, "-"+c.flag) {
				t.Errorf("spbench %s: first stderr line %q does not name -%s", c.args, first, c.flag)
			}
			if s := stderr.String(); strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
				t.Errorf("spbench %s: stderr has a panic:\n%s", c.args, s)
			}
		})
	}
}
