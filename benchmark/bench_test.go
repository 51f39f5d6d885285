package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// Every workload, traced at 1/50 size, emits exactly the metric set
// BENCHMARK.json declares and passes its own mechanism assertions and
// correctness checks (which include that its two repetitions produced
// one sim_digest); the digest moves with the seed; and the span file's
// engine spans account for the traced sweep.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := testSpec(t)
	if n := len(sp.EndToEnd); n == 0 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n == 0 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for _, d := range sp.Workloads {
		t.Run(d.Name, func(t *testing.T) {
			w, err := findWorkload(d.Name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			p := runParams{sz: small, seed: 42, reps: 2, trace: true, spec: sp, outDir: dir}
			res, err := w.run(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, problem := range res.Problems {
				t.Error(problem)
			}
			medians := map[string]float64{}
			for name, st := range res.E2E {
				medians[name] = st.Median
				if st.Median == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if err := checkSet("end-to-end", sp.EndToEnd, medians); err != nil {
				t.Error(err)
			}
			if err := checkSet("per-layer", sp.PerLayer, res.Layer); err != nil {
				t.Error(err)
			}

			call, err := w.prepare(small, 43)
			if err != nil {
				t.Fatal(err)
			}
			other, err := call()
			if err != nil {
				t.Fatal(err)
			}
			if other.digest == res.SimDigest {
				t.Errorf("sim_digest %s for seeds 42 and 43", res.SimDigest)
			}

			if w.train != nil {
				checkSweepSpans(t, filepath.Join(dir, "spans-"+w.name+"-seed42.jsonl"))
			}
		})
	}
}

// checkSweepSpans reads a span file back and requires the engine.*
// children of the traced sweep to sum to within 2% of the sweep itself.
func checkSweepSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sweep span
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Name == "engine.sweep" {
			sweep = s
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range spans {
		if s.Parent == sweep.ID && strings.HasPrefix(s.Name, "engine.") {
			sum += s.EndNS - s.StartNS
		}
	}
	wall := sweep.EndNS - sweep.StartNS
	if wall == 0 || float64(wall-sum) > 0.02*float64(wall) {
		t.Errorf("engine.* spans sum to %d ns of a %d ns sweep, want within 2%%", sum, wall)
	}
}

// The fleet the harness builds from its own dense-forward constants is
// the fleet engine.RunServe builds from the model configuration: both
// report bit-identically on the harness's arrival vector.
func TestServeInputsMatchEngine(t *testing.T) {
	for _, w := range workloads {
		if w.serve == nil {
			continue
		}
		run, err := w.serve.build(small, 42, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.fleet.Simulate(run.arrivals)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := w.serve.config(small, 42, run.opts)
		if err != nil {
			t.Fatal(err)
		}
		env, err := engine.NewEnv(envConfig(cfg, trace.High, false))
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.RunServe(env)
		if err != nil {
			t.Fatal(err)
		}
		if g, e := serveOutcome(got).digest, serveOutcome(want).digest; g != e {
			t.Errorf("%s: harness fleet sim_digest %s, engine.RunServe %s", w.name, g, e)
		}
	}
}

func TestCheckSetRejectsDrift(t *testing.T) {
	decls := []metricDecl{{Name: "a.b"}, {Name: "c"}}
	if err := checkSet("x", decls, map[string]float64{"a.b": 1, "c": 2}); err != nil {
		t.Errorf("exact set rejected: %v", err)
	}
	for name, got := range map[string]map[string]float64{
		"missing":    {"a.b": 1},
		"undeclared": {"a.b": 1, "c": 2, "d": 3},
		"bad name":   {"a.b": 1, "c": 2, "sp ace": 3},
	} {
		if err := checkSet("x", decls, got); err == nil {
			t.Errorf("%s: accepted %v", name, got)
		}
	}
}
