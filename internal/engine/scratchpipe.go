package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ScratchPipeOptions tunes the pipelined engine.
type ScratchPipeOptions struct {
	// CacheFrac sizes the per-table scratchpad as a fraction of the CPU
	// table (the paper sweeps 2-10%).
	CacheFrac float64
	// Policy is the replacement policy among unprotected slots
	// (default LRU).
	Policy cache.PolicyKind
	// FutureWindow is the number of upcoming batches whose cached rows
	// the Plan stage pins (look-ahead). 0 selects the paper's 2.
	FutureWindow int
	// EvictionLookahead extends the dataset look-ahead beyond the
	// hazard window: the Plan stage additionally reads the IDs of
	// batches at distance (FutureWindow, EvictionLookahead] and avoids
	// evicting their cached rows when any other victim exists. This is
	// the "look forward" principle applied to replacement quality
	// rather than correctness; 0 disables it.
	EvictionLookahead int
	// Parallel executes each cycle's six stages in separate goroutines;
	// any hold-discipline bug then becomes a data race.
	Parallel bool
	// ColdStart skips the steady-state cache prewarm (measurements then
	// include the compulsory-miss ramp).
	ColdStart bool
	// CPUContention models the pessimistic case in which the CPU-memory
	// components of concurrently executing stages (one batch's
	// [Collect] gathers, another's [Insert] write-backs) cannot overlap
	// and serialize on the single socket's DRAM bandwidth; the default
	// optimistic model lets them proceed concurrently, as the paper's
	// measured stage latencies imply.
	CPUContention bool
	// NumGPUs > 1 models the §VI-G multi-GPU ScratchPipe: tables are
	// partitioned table-wise, each GPU runs its own per-table cache
	// managers, and the MLPs train data-parallel. GPU-side stage work
	// and PCIe traffic scale down with the GPU count; the CPU-side
	// gathers and write-backs do not (one socket feeds all GPUs) —
	// which is why the paper expects this design point to underutilize
	// GPU compute at low locality. Functional training is unchanged
	// (table-wise parallelism reorders no float operation). Zero
	// selects the paper's single-GPU design.
	NumGPUs int

	// The two hazard plants, set only by this package's tests, which
	// must then see the model state diverge from hybrid's. releaseAt
	// releases a batch's holds when it enters the given stage instead
	// of [Train], shrinking the past window (RAW-2/3); the zero value
	// selects [Train]. noFuture disables the future window (RAW-4).
	releaseAt core.Stage
	noFuture  bool
}

func (o *ScratchPipeOptions) applyDefaults() {
	if o.Policy == "" {
		o.Policy = cache.LRU
	}
	if o.noFuture {
		o.FutureWindow = 0
	} else if o.FutureWindow == 0 {
		_, o.FutureWindow = core.DefaultWindows()
	}
	if o.releaseAt == core.StageLoad {
		o.releaseAt = core.StageTrain
	}
}

// pastWindow is the effective past-window width: a batch's slots stay
// protected from its [Plan] until it enters the release stage, so the
// width is the pipeline distance between the two (3 for the paper's
// release-at-[Train]).
func (o ScratchPipeOptions) pastWindow() int {
	return int(o.releaseAt-core.StagePlan) - 1
}

// ScratchPipe is the paper's proposed engine (§IV-C, Figure 10): the
// six-stage pipelined scratchpad runtime. Every cycle retires one training
// iteration whose embedding traffic is serviced entirely from GPU memory,
// while the Collect/Exchange/Insert stages of younger batches prefetch
// their working sets in the background. Steady-state iteration latency is
// therefore the *maximum* stage latency rather than the sum.
type ScratchPipe struct {
	env    *Env
	opts   ScratchPipeOptions
	dyn    *dynamicState
	loader *trace.Loader
	pipe   *core.Pipeline
}

// NewScratchPipe builds the pipelined engine.
func NewScratchPipe(env *Env, opts ScratchPipeOptions) (*ScratchPipe, error) {
	opts.applyDefaults()
	if opts.FutureWindow < 0 {
		return nil, fmt.Errorf("engine: scratchpipe: negative future window")
	}
	if opts.EvictionLookahead < 0 {
		return nil, fmt.Errorf("engine: scratchpipe: negative eviction look-ahead")
	}
	if opts.NumGPUs < 0 {
		return nil, fmt.Errorf("engine: scratchpipe: negative GPU count")
	}
	if opts.NumGPUs == 0 {
		opts.NumGPUs = 1
	}
	dyn, err := newDynamicState(env, opts.CacheFrac, opts.Policy, opts.pastWindow(), opts.FutureWindow)
	if err != nil {
		return nil, err
	}
	dyn.gpus = opts.NumGPUs
	lookahead := opts.FutureWindow
	if opts.EvictionLookahead > lookahead {
		lookahead = opts.EvictionLookahead
	}
	loader, err := trace.NewLoader(env.Gen, lookahead)
	if err != nil {
		return nil, err
	}
	s := &ScratchPipe{env: env, opts: opts, dyn: dyn, loader: loader}
	if !opts.ColdStart {
		dyn.prewarm()
	}

	wrap := func(f func(*spJob) error) core.StageFunc {
		return func(_ int, job core.Job) error { return f(job.(*spJob)) }
	}
	var stages [core.NumStages]core.StageFunc
	stages[core.StageLoad] = nil // jobs are materialized by the run loop
	stages[core.StagePlan] = wrap(dyn.stagePlan)
	stages[core.StageCollect] = wrap(dyn.stageCollect)
	stages[core.StageExchange] = wrap(dyn.stageExchange)
	stages[core.StageInsert] = wrap(dyn.stageInsert)
	stages[core.StageTrain] = wrap(dyn.stageTrain)
	s.pipe = core.NewPipeline(stages, opts.Parallel)
	return s, nil
}

// Name implements Engine.
func (s *ScratchPipe) Name() string { return "scratchpipe" }

// Run implements Engine: injects n mini-batches, pipelines them to
// completion, and reports steady-state per-iteration latency.
func (s *ScratchPipe) Run(n int) (*Report, error) {
	if err := validateIters(n); err != nil {
		return nil, err
	}
	rep := &Report{Engine: s.Name(), Iters: n}
	var steadyTime float64
	var steadyCycles int
	// At most one steady cycle per iteration: sized up front, the
	// series never grows mid-run.
	var cycleSeries metrics.Series
	cycleSeries.Grow(n)

	runCycle := func(job *spJob) error {
		// The job about to enter [Train] stops holding its slots:
		// from this cycle's [Plan] onward they are fair eviction
		// game, exactly the paper's past-window arithmetic.
		if entering := s.pipe.AtStage(s.opts.releaseAt - 1); entering != nil {
			if err := s.dyn.release(entering.(*spJob)); err != nil {
				return err
			}
		}
		var injected core.Job
		if job != nil {
			injected = job
		}
		done, err := s.pipe.RunCycle(injected)
		if err != nil {
			return err
		}
		// Cycle latency = slowest concurrently executing stage; under
		// the contention model, additionally no shorter than the sum
		// of the executing stages' CPU-memory components.
		exec := s.pipe.LastExecuted()
		var cycleWall, cpuSum float64
		occupied := 0
		for st, j := range exec {
			if j == nil {
				continue
			}
			occupied++
			sj := j.(*spJob)
			if t := sj.stageTime[st]; t > cycleWall {
				cycleWall = t
			}
			cpuSum += sj.stageCPU[st]
		}
		if s.opts.CPUContention && cpuSum > cycleWall {
			cycleWall = cpuSum
		}
		// The Plan's hidden coordination share runs on the inter-node
		// links concurrently with this cycle's stages; the cycle cannot
		// retire before those rounds complete, so it floors the wall
		// (this is what keeps overlap honest rather than free).
		if pj := exec[core.StagePlan]; pj != nil {
			if h := pj.(*spJob).coordHidden; h > cycleWall {
				cycleWall = h
			}
		}
		rep.Wall += cycleWall
		if occupied == int(core.NumStages) {
			steadyTime += cycleWall
			steadyCycles++
			cycleSeries.Add(cycleWall)
		} else {
			rep.FillCycles++
		}
		if done != nil {
			s.dyn.retire(rep, done.(*spJob))
		}
		return nil
	}

	for it := 0; it < n; it++ {
		// Resharding fires between Plans: in-flight batches'
		// hold state migrates with everything else, so the pipeline
		// does not drain and plans stay identical across the boundary.
		// Reshard/fault events clear the managers' overlap marks, so the
		// next Plan prices every round critically.
		if err := s.dyn.maybeReshard(it); err != nil {
			return nil, err
		}
		// Fault events fire at the same boundary: detection, evacuation
		// and recovery happen with batches still in flight.
		if err := s.dyn.maybeFault(it, rep.Wall); err != nil {
			return nil, err
		}
		job := s.dyn.newJob(s.loader, s.opts.FutureWindow, s.loader.Ahead())
		if err := runCycle(job); err != nil {
			return nil, err
		}
		s.markOverlap(job)
	}
	for s.pipe.InFlight() > 0 {
		if err := runCycle(nil); err != nil {
			return nil, err
		}
	}

	s.dyn.finish(rep)
	// Steady state excludes the pipeline's fill and drain cycles.
	if steadyCycles > 0 {
		rep.IterTime = steadyTime / float64(steadyCycles)
		rep.CycleStats = cycleSeries.Summarize()
	}
	return rep, nil
}

// markOverlap runs the look-ahead check after the cycle that injected
// job: the job sits at [Load] and executes its Plan next cycle, so each
// table's manager learns now whether that Plan will sweep and can hide
// its first poll round (shard.Manager.OverlapNextPlan).
func (s *ScratchPipe) markOverlap(job *spJob) {
	if !s.env.Cfg.CoordOverlap {
		return
	}
	for t, sp := range s.dyn.sps {
		uniq, _ := job.batch.UniqueWithCounts(t)
		sp.OverlapNextPlan(uniq)
	}
}

// Flush implements FlushTables.
func (s *ScratchPipe) Flush() error {
	return s.dyn.flush()
}
