package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// runMainEnv marks a re-executed test binary that should behave as the
// benchgate command itself.
const runMainEnv = "BENCHGATE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInput checks that bad run flags exit with status 2 and a
// one-line error naming the flag, never a panic or a measurement. The
// baseline does not exist, so an accepted input fails on reading it
// instead, without naming the flag.
func TestBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none.json")
	for _, c := range []struct{ flag, args string }{
		{"shards", "-shards -1"},
		{"topology", "-topology bogus"},
		{"fail", "-fail host1@5"},
		{"deadline", "-deadline -1"},
		{"serve-fail", "-serve -serve-fail replica9@0.1"},
		{"router", "-router random"},
	} {
		t.Run(c.flag, func(t *testing.T) {
			args := append([]string{"-baseline", missing}, strings.Fields(c.args)...)
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Fatalf("benchgate %s: exit %d (%v), want 2\n%s", c.args, code, err, stderr.Bytes())
			}
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.Contains(first, "-"+c.flag) {
				t.Errorf("benchgate %s: first stderr line %q does not name -%s", c.args, first, c.flag)
			}
			if s := stderr.String(); strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
				t.Errorf("benchgate %s: stderr has a panic:\n%s", c.args, s)
			}
		})
	}
}

// TestPickBaseline matches measurement shapes against an inline history:
// the defaults normalise (shards 0 and 1, topology "" and "single",
// placement "" and "stripe", coord "" and "exact"), placement counts only
// on a real topology, the most recent match wins, and any other shape
// difference finds nothing.
func TestPickBaseline(t *testing.T) {
	hist := []bench.HotPathResult{
		{Note: "colocated", Config: "quick", Workers: 1},
		{Note: "colocated-again", Config: "quick", Workers: 1, Shards: 1, Topology: "single", Placement: "stripe", CoordMode: "exact"},
		{Note: "cluster", Config: "quick", Workers: 1, Shards: 4, Topology: "cluster2x2", Placement: "stripe", CoordMode: "hier"},
		{Note: "cluster-range", Config: "quick", Workers: 1, Shards: 4, Topology: "cluster2x2", Placement: "range", CoordMode: "hier"},
		{Note: "colocated-hier", Config: "quick", Workers: 1, Shards: 4, CoordMode: "hier"},
	}
	for _, c := range []struct {
		want bench.HotPathResult
		note string
	}{
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 1, CoordMode: "exact"}, "colocated-again"},
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 0, Topology: "single", Placement: "range"}, "colocated-again"},
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 4, Topology: "cluster2x2", CoordMode: "hier"}, "cluster"},
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 4, Topology: "cluster2x2", Placement: "range", CoordMode: "hier"}, "cluster-range"},
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 4, Placement: "stripe", CoordMode: "hier"}, "colocated-hier"},
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 4, Topology: "cluster2x2", Placement: "loadaware", CoordMode: "hier"}, ""},
		{bench.HotPathResult{Config: "quick", Workers: 1, Shards: 4}, ""},
		{bench.HotPathResult{Config: "quick", Workers: 2}, ""},
		{bench.HotPathResult{Config: "full", Workers: 1}, ""},
		{bench.HotPathResult{Config: "quick", Workers: 1, CoordOverlap: true}, ""},
	} {
		got := pickBaseline(hist, c.want)
		note := ""
		if got != nil {
			note = got.Note
		}
		if note != c.note {
			t.Errorf("pickBaseline(%+v) = %q, want %q", c.want, note, c.note)
		}
	}
}
