package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// The simulator has no hardware reference in the tree, so every
// simulated number is printed with this caveat.
const unvalidated = "cost model unvalidated; no error figure"

const (
	// minReps is the fewest timed repetitions a median is taken over.
	minReps = 3
	// traceReps is the untraced repetitions of a traced run: enough for
	// harness.trace_overhead_ratio, not a reference for any end-to-end
	// metric.
	traceReps = 2
	// setupSamples is how many times set-up is repeated per run, so the
	// millisecond-scale setup_s is a median of several.
	setupSamples = 5
)

// outcome is what one timed call produced, reduced to what the harness
// reports and checks.
type outcome struct {
	sim    map[string]float64   // simulated-clock end-to-end metrics
	digest string               // sha256 of every simulated statistic
	points []bench.SpeedupPoint // training workloads
	report *serve.Report        // serving workloads
}

// result is one workload's run: end-to-end metrics always, per-layer
// metrics when traced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	E2E       map[string]stat    `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	SimDigest string             `json:"sim_digest"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	// Problems lists failed mechanism assertions and correctness checks;
	// any entry makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
	VerifyS  float64  `json:"verify_s"`
}

// runParams selects how a workload is run.
type runParams struct {
	sz      size
	seed    int64
	seconds float64 // measure until this much time has passed ...
	reps    int     // ... or, when > 0, exactly this many repetitions
	trace   bool
	spec    *spec  // the declared metric set
	outDir  string // where the traced run writes its span file
}

// prepare is one set-up, and its duration one setup_s sample: it builds
// the inputs of a timed call outside the timed region and warms the
// process up with one call at 1/50 size, so lazy initialisation a change
// moves out of the timed call shows up here. It returns the timed call.
func (w *workload) prepare(sz size, seed int64) (func() (outcome, error), error) {
	build := func(sz size) (func() (outcome, error), error) {
		if w.train != nil {
			return w.train.prepare(sz, seed)
		}
		return w.serve.prepare(sz, seed, nil)
	}
	if sz != small {
		warm, err := build(small)
		if err != nil {
			return nil, err
		}
		if _, err := warm(); err != nil {
			return nil, err
		}
	}
	return build(sz)
}

// run measures the workload: repetitions of prepare + timed call, then
// the untimed verify phase, then (traced runs only) the layer trace.
func (w *workload) run(p runParams) (*result, error) {
	res := &result{Workload: w.name, Seed: p.seed, E2E: map[string]stat{}}
	var setup, wall, allocs, allocMB []float64
	var first outcome
	reps := p.reps
	if p.trace && reps == 0 {
		reps = traceReps
	}
	// Every set-up and every timed call starts from a collected heap, so
	// none inherits its predecessor's garbage.
	setUp := func() (func() (outcome, error), error) {
		runtime.GC()
		t0 := time.Now()
		call, err := w.prepare(p.sz, p.seed)
		setup = append(setup, time.Since(t0).Seconds())
		return call, err
	}
	start := time.Now()
	for i := 0; i < reps || (reps == 0 && (i < minReps || time.Since(start).Seconds() < p.seconds)); i++ {
		call, err := setUp()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out, err := call()
		if err != nil {
			return nil, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		if i == 0 {
			first = out
		} else if out.digest != first.digest {
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d produced sim_digest %s, repetition 0 %s", i, out.digest, first.digest))
		}
	}
	for len(setup) < setupSamples {
		if _, err := setUp(); err != nil {
			return nil, err
		}
	}
	res.E2E["setup_s"] = summarize(setup)
	res.E2E["host_wall_s"] = summarize(wall)
	res.E2E["host_allocs"] = summarize(allocs)
	res.E2E["host_alloc_mb"] = summarize(allocMB)
	for name, v := range first.sim {
		res.E2E[name] = stat{Median: v, Min: v, Max: v, N: len(wall)}
	}
	res.SimDigest = first.digest

	t0 := time.Now()
	var layer map[string]float64
	var err error
	if w.train != nil {
		layer, err = w.train.verify(res, first, p)
	} else {
		layer, err = w.serve.verify(res, first, p)
	}
	if err != nil {
		return nil, err
	}
	res.VerifyS = time.Since(t0).Seconds()

	if p.trace {
		rec := newRecorder(w.name)
		untraced := res.E2E["host_wall_s"].Median
		if w.train != nil {
			err = w.train.traced(rec, layer, first, untraced, p)
		} else {
			err = w.serve.traced(rec, layer, first, untraced, p)
		}
		if err != nil {
			return nil, err
		}
		layer["harness.verify_s"] = res.VerifyS
		layer["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		layer["harness.peak_rss_mb"] = peakRSSMB()
		layer["harness.fail_share"] = float64(res.Failed) / float64(res.Attempted)
		layer["harness.golden_drift"] = goldenDrift(w.name, p, res.SimDigest)
		res.Layer = layer
		if p.outDir != "" {
			path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", p.outDir, w.name, p.seed)
			if err := rec.write(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark (Linux);
// 0 where /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// allocDelta runs f and returns the heap objects and bytes it allocated.
// It reads runtime/metrics, which unlike runtime.ReadMemStats does not
// stop the world, so the layer replay can afford it around every call.
func allocDelta(f func()) (objects, bytes float64) {
	var before, after [2]metrics.Sample
	before[0].Name, before[1].Name = "/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"
	after = before
	metrics.Read(before[:])
	f()
	metrics.Read(after[:])
	return float64(after[0].Value.Uint64() - before[0].Value.Uint64()),
		float64(after[1].Value.Uint64() - before[1].Value.Uint64())
}
