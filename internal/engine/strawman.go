package engine

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// StrawMan is the unpipelined dynamic-cache design of §IV-B (Figure 8):
// every training iteration executes Query/Plan, Collect, Exchange, Insert
// and Train back-to-back, so the cache-management latency sits fully on
// the critical path. It needs no look-ahead and no hold-mask windows
// beyond protecting the current batch's own slots from its own victim
// selection. The paper uses it to show that dynamic caching alone already
// beats static caching — and that pipelining is where the rest of the
// speedup comes from.
type StrawMan struct {
	env       *Env
	dyn       *dynamicState
	loader    *trace.Loader
	cacheFrac float64
}

// NewStrawMan builds the engine with a dynamic per-table cache of
// cacheFrac x RowsPerTable slots and the given replacement policy. The
// cache is prewarmed to steady state like ScratchPipe's.
func NewStrawMan(env *Env, cacheFrac float64, policy cache.PolicyKind) (*StrawMan, error) {
	dyn, err := newDynamicState(env, cacheFrac, policy, 0, 0)
	if err != nil {
		return nil, err
	}
	loader, err := trace.NewLoader(env.Gen, 0)
	if err != nil {
		return nil, err
	}
	dyn.prewarm()
	return &StrawMan{env: env, dyn: dyn, loader: loader, cacheFrac: cacheFrac}, nil
}

// Name implements Engine.
func (s *StrawMan) Name() string { return "strawman" }

// Run implements Engine.
func (s *StrawMan) Run(n int) (*Report, error) {
	if err := validateIters(n); err != nil {
		return nil, err
	}
	rep := &Report{Engine: s.Name(), Iters: n}
	for it := 0; it < n; it++ {
		// Resharding fires between Plans (see scratchpipe.go;
		// unpipelined, so there is never more than one batch in flight
		// here).
		if err := s.dyn.maybeReshard(it); err != nil {
			return nil, err
		}
		if err := s.dyn.maybeFault(it, rep.Wall); err != nil {
			return nil, err
		}
		job := s.dyn.newJob(s.loader, 0, 0)
		if err := s.dyn.stagePlan(job); err != nil {
			return nil, err
		}
		if err := s.dyn.stageCollect(job); err != nil {
			return nil, err
		}
		if err := s.dyn.stageExchange(job); err != nil {
			return nil, err
		}
		if err := s.dyn.stageInsert(job); err != nil {
			return nil, err
		}
		// The batch enters Train: its slots may be evicted by later
		// batches from here on.
		if err := s.dyn.release(job); err != nil {
			return nil, err
		}
		if err := s.dyn.stageTrain(job); err != nil {
			return nil, err
		}

		// Unpipelined: the iteration takes the sum of its stages.
		var iter float64
		for _, t := range job.stageTime {
			iter += t
		}
		rep.Wall += iter
		s.dyn.retire(rep, job)
	}
	s.dyn.finish(rep)
	return rep, nil
}

// Flush implements FlushTables.
func (s *StrawMan) Flush() error { return s.dyn.flush() }
