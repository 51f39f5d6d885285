package engine

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

// newWorkersEnv builds a functional env with an explicit worker count.
func newWorkersEnv(t testing.TB, class trace.Class, seed int64, workers int) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:      smallModel(),
		System:     hw.DefaultSystem(),
		Class:      class,
		Seed:       seed,
		Functional: true,
		Workers:    workers,
	})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// TestWorkersEquivalence is the determinism contract of the per-table
// fan-out: for every engine, a run with Workers=4 must produce
// bit-identical simulated statistics, timing, losses, and model state to
// Workers=1. Per-table work writes only per-table state; reductions run
// serially in table order.
func TestWorkersEquivalence(t *testing.T) {
	builders := map[string]func(*Env) (Engine, error){
		"hybrid":   func(e *Env) (Engine, error) { return NewHybrid(e), nil },
		"static":   func(e *Env) (Engine, error) { return NewStaticCache(e, 0.10) },
		"strawman": func(e *Env) (Engine, error) { return NewStrawMan(e, 0.05, "lru") },
		"scratchpipe": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05, EvictionLookahead: 6})
		},
		"scratchpipe-pipelined": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05, Parallel: true})
		},
		"multigpu": func(e *Env) (Engine, error) { return NewMultiGPU(e) },
	}
	const iters = 25
	for name, build := range builders {
		run := func(workers int) (*Report, *Env) {
			env := newWorkersEnv(t, trace.Medium, 77, workers)
			eng, err := build(env)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep := runAndFlush(t, eng, iters)
			return rep, env
		}
		serialRep, serialEnv := run(1)
		parRep, parEnv := run(4)

		if serialRep.Wall != parRep.Wall || serialRep.IterTime != parRep.IterTime {
			t.Errorf("%s: timing differs: wall %v vs %v, iter %v vs %v",
				name, serialRep.Wall, parRep.Wall, serialRep.IterTime, parRep.IterTime)
		}
		if serialRep.Hits != parRep.Hits || serialRep.Misses != parRep.Misses ||
			serialRep.Fills != parRep.Fills || serialRep.Evictions != parRep.Evictions {
			t.Errorf("%s: cache stats differ: hits %d/%d misses %d/%d fills %d/%d evictions %d/%d",
				name, serialRep.Hits, parRep.Hits, serialRep.Misses, parRep.Misses,
				serialRep.Fills, parRep.Fills, serialRep.Evictions, parRep.Evictions)
		}
		if serialRep.AvgLoss != parRep.AvgLoss {
			t.Errorf("%s: loss differs: %v vs %v", name, serialRep.AvgLoss, parRep.AvgLoss)
		}
		for st := range serialRep.StageAvg {
			if serialRep.StageAvg[st] != parRep.StageAvg[st] {
				t.Errorf("%s: stage %d latency differs: %v vs %v",
					name, st, serialRep.StageAvg[st], parRep.StageAvg[st])
			}
		}
		assertSameModelState(t, name+"-workers", parEnv, serialEnv)
	}
}

// TestWorkersHazardFree runs the parallel pipeline AND the per-table
// fan-out together: stage-level and table-level parallelism must compose
// without conflicts, so the weights still match hybrid's bitwise (this
// is also the configuration `go test -race ./internal/engine/`
// exercises).
func TestWorkersHazardFree(t *testing.T) {
	if diff := againstHybrid(t, 19, 4, 40, ScratchPipeOptions{CacheFrac: 0.05, Parallel: true}); diff != "" {
		t.Fatalf("workers=4: %s", diff)
	}
}
