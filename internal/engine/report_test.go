package engine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/trace"
)

// TestTimingModeIndependence: simulated performance derives only from
// sparse-ID event counts, so a functional run and a metadata run of the
// same seed must report identical timing — the guarantee that lets the
// paper-scale experiments run in metadata mode.
func TestTimingModeIndependence(t *testing.T) {
	build := func(functional bool) *Env {
		env, err := NewEnv(EnvConfig{
			Model:      smallModel(),
			System:     hw.DefaultSystem(),
			Class:      trace.Medium,
			Seed:       61,
			Functional: functional,
		})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	for name, mk := range map[string]func(*Env) (Engine, error){
		"hybrid":   func(e *Env) (Engine, error) { return NewHybrid(e), nil },
		"static":   func(e *Env) (Engine, error) { return NewStaticCache(e, 0.05) },
		"strawman": func(e *Env) (Engine, error) { return NewStrawMan(e, 0.05, cache.LRU) },
		"scratchpipe": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05})
		},
		"multigpu": func(e *Env) (Engine, error) { return NewMultiGPU(e) },
	} {
		engF, err := mk(build(true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engM, err := mk(build(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		repF, err := engF.Run(15)
		if err != nil {
			t.Fatalf("%s functional: %v", name, err)
		}
		repM, err := engM.Run(15)
		if err != nil {
			t.Fatalf("%s metadata: %v", name, err)
		}
		if repF.Wall != repM.Wall || repF.IterTime != repM.IterTime {
			t.Errorf("%s: timing differs across modes: wall %v vs %v, iter %v vs %v",
				name, repF.Wall, repM.Wall, repF.IterTime, repM.IterTime)
		}
		if repF.Hits != repM.Hits || repF.Misses != repM.Misses {
			t.Errorf("%s: cache stats differ across modes", name)
		}
	}
}

// TestReportInvariants checks the accounting identities every report must
// satisfy.
func TestReportInvariants(t *testing.T) {
	env := newTestEnv(t, trace.High, 67)
	eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iters != 20 {
		t.Errorf("Iters = %d", rep.Iters)
	}
	if rep.Wall <= 0 || rep.IterTime <= 0 {
		t.Errorf("non-positive time: wall %v iter %v", rep.Wall, rep.IterTime)
	}
	// Queries = hits + misses; hit rate within [0,1].
	if hr := rep.HitRate(); hr < 0 || hr > 1 {
		t.Errorf("hit rate %v", hr)
	}
	// A 6-deep pipeline needs 5 fill cycles plus 5 drain cycles around
	// the steady region.
	if rep.FillCycles != 10 {
		t.Errorf("fill+drain cycles = %d, want 10", rep.FillCycles)
	}
	// Steady-state cycle stats digest the per-cycle walls.
	if rep.CycleStats.Count != 15 {
		t.Errorf("steady cycles = %d, want 15", rep.CycleStats.Count)
	}
	if rep.CycleStats.Max < rep.CycleStats.P50 || rep.CycleStats.P50 < rep.CycleStats.Min {
		t.Errorf("cycle stats not ordered: %+v", rep.CycleStats)
	}
	// Fills == unique misses <= occurrence misses; evictions <= fills.
	if rep.Fills > rep.Misses {
		t.Errorf("fills %d > occurrence misses %d", rep.Fills, rep.Misses)
	}
	if rep.Evictions > rep.Fills {
		t.Errorf("evictions %d > fills %d", rep.Evictions, rep.Fills)
	}
}

// TestCPUContentionNeverFaster: the contention model is a pessimistic
// bound, so it can only increase iteration time.
func TestCPUContentionNeverFaster(t *testing.T) {
	run := func(contention bool) *Report {
		env := newTestEnv(t, trace.Random, 71)
		eng, err := NewScratchPipe(env, ScratchPipeOptions{
			CacheFrac:     0.05,
			CPUContention: contention,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(false)
	cont := run(true)
	if cont.IterTime < base.IterTime {
		t.Errorf("contention model faster than optimistic: %v < %v", cont.IterTime, base.IterTime)
	}
}

// TestColdStartSlowerStart: skipping the prewarm must produce at least as
// many fills (compulsory misses) as a warmed cache.
func TestColdStartSlowerStart(t *testing.T) {
	run := func(cold bool) *Report {
		env := newTestEnv(t, trace.High, 73)
		eng, err := NewScratchPipe(env, ScratchPipeOptions{
			CacheFrac: 0.05,
			ColdStart: cold,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(15)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	warm := run(false)
	cold := run(true)
	if cold.Fills < warm.Fills {
		t.Errorf("cold start produced fewer fills (%d) than warm (%d)", cold.Fills, warm.Fills)
	}
}

// TestMultiGPUScratchPipe quantifies the §VI-G discussion: with 8 GPUs,
// ScratchPipe's Train stage shrinks, but on a random trace the CPU-side
// Collect bound stays — so the speedup is far below 8x (the paper's
// "underutilize the abundant GPU compute" argument) — while the training
// math is still bitwise identical.
func TestMultiGPUScratchPipe(t *testing.T) {
	run := func(gpus int, seed int64) (*Report, *Env) {
		env := newTestEnv(t, trace.Random, seed)
		eng, err := NewScratchPipe(env, ScratchPipeOptions{
			CacheFrac: 0.05,
			NumGPUs:   gpus,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(25)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		return rep, env
	}
	one, envOne := run(1, 89)
	eight, envEight := run(8, 89)
	if eight.IterTime > one.IterTime {
		t.Errorf("8-GPU ScratchPipe slower than 1-GPU: %v vs %v", eight.IterTime, one.IterTime)
	}
	if one.IterTime/eight.IterTime > 6 {
		t.Errorf("8-GPU speedup %.2fx implausibly near-linear on a CPU-bound trace",
			one.IterTime/eight.IterTime)
	}
	assertSameModelState(t, "multigpu-scratchpipe", envEight, envOne)
}

// TestRunValidation: engines reject nonsensical iteration counts.
func TestRunValidation(t *testing.T) {
	env := newTestEnv(t, trace.Low, 79)
	eng := NewHybrid(env)
	if _, err := eng.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
	if _, err := eng.Run(-3); err == nil {
		t.Error("Run(-3) accepted")
	}
}

// TestStaticCacheFracBounds: configuration validation.
func TestStaticCacheFracBounds(t *testing.T) {
	env := newTestEnv(t, trace.Low, 83)
	if _, err := NewStaticCache(env, -0.1); err == nil {
		t.Error("negative cache fraction accepted")
	}
	if _, err := NewStaticCache(env, 1.5); err == nil {
		t.Error("cache fraction > 1 accepted")
	}
	env2 := newTestEnv(t, trace.Low, 83)
	if _, err := NewStrawMan(env2, 0, cache.LRU); err == nil {
		t.Error("zero cache fraction accepted for strawman")
	}
}

// TestScratchPipeOptionBounds: negative windows and counts are errors,
// not sentinels.
func TestScratchPipeOptionBounds(t *testing.T) {
	for _, opts := range []ScratchPipeOptions{
		{CacheFrac: 0.05, FutureWindow: -1},
		{CacheFrac: 0.05, EvictionLookahead: -1},
		{CacheFrac: 0.05, NumGPUs: -1},
	} {
		if _, err := NewScratchPipe(newTestEnv(t, trace.Low, 83), opts); err == nil {
			t.Errorf("%+v accepted", opts)
		}
	}
}

// TestMultiGPUCapacityCheck: the multi-GPU engine refuses models that do
// not fit the pooled HBM (the feasibility requirement §VI-F states).
func TestMultiGPUCapacityCheck(t *testing.T) {
	model := smallModel()
	model.RowsPerTable = 1 << 40 // absurd: ~8 PB of embeddings
	env, err := NewEnv(EnvConfig{
		Model:  model,
		System: hw.DefaultSystem(),
		Class:  trace.Low,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiGPU(env); err == nil {
		t.Error("oversized model accepted by multi-GPU engine")
	}
}
