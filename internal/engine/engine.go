// Package engine implements the five training-system design points the
// paper evaluates against each other:
//
//   - Hybrid CPU-GPU without caching (Figure 4a) — the baseline.
//   - Hybrid CPU-GPU with a static top-N GPU embedding cache (Figure 4b).
//   - The straw-man dynamic cache without pipelining (§IV-B, Figure 8).
//   - ScratchPipe: the pipelined scratchpad runtime (§IV-C, Figure 10).
//   - An 8-GPU model-parallel "GPU-only" system (§VI-F, Table I).
//
// Every engine runs in one of two modes. In functional mode it executes the
// real float32 training math through the canonical primitives of
// internal/embed and internal/dlrm, so engines can be checked for bitwise
// equivalence. In metadata mode it tracks only sparse IDs and cache events,
// which lets the paper-scale configuration (8 x 10M-row tables) run in a
// few hundred MB. Both modes drive the same analytic timing model
// (internal/hw), because simulated latency depends only on event counts.
//
// Architecture orientation (DESIGN.md is the long form):
//
//   - [EnvConfig] -> [NewEnv] -> [Env]: one experiment environment — the
//     model shape, hardware platform, trace class, and the scale-out
//     knobs (Workers fan-out, Shards per table, Topology + Placement for
//     costed cross-node coordination, Coord protocol, Reshard schedule
//     for run-time elasticity). An Env carries one position in its batch
//     stream and, under faults, one mutable topology: a second engine
//     built over the same Env continues where the first left off. To
//     run several engines on the same stream, build each over
//     [Env.Fork] — a child that replays the stream from batch 0 with
//     its own topology copy — and [Env.Close] the child after its run,
//     so the next fork's dynamic engines reset its scratchpads instead
//     of rebuilding them. EnvConfig is also the commands' run spec:
//     [EnvConfig.RegisterFlags] declares the flags spbench, dlrmtrain
//     and benchgate share, and [EnvConfig.Validate] is the one check
//     behind both NewEnv and those flags.
//   - Every engine's functional math is one method, Env.trainStep; an
//     engine only hands it each table's row and optimizer-state stores
//     (CPU tables, static caches, or scratchpad views).
//   - The two dynamic-cache engines (StrawMan, ScratchPipe) share
//     dynamicState: per-table shard.Manager control planes, the row
//     planes that cache embeddings and optimizer state, the five stage
//     implementations with their timing formulas, the elastic-resharding
//     hooks, and the booking of retired batches (retire, finish).
//     ScratchPipe runs the stages through core.Pipeline; the straw-man
//     runs them back-to-back.
//   - [Report] is the output contract: simulated times (Wall, IterTime,
//     per-stage averages, CoordTime, MigrationTime), cache statistics,
//     coordination traffic (Coord, Overlap), and resharding
//     totals (Resharding, FinalShards). The bench package renders the
//     paper's tables from Reports; EXPERIMENTS.md says how to reproduce
//     each one.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dlrm"
	"repro/internal/embed"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// EnvConfig describes one experiment environment.
type EnvConfig struct {
	// Model is the DLRM architecture (paper defaults: DefaultConfig).
	Model dlrm.Config
	// System is the hardware platform model.
	System hw.System
	// Class is the trace locality class.
	Class trace.Class
	// Seed drives every PRNG in the environment (trace, init, policies).
	Seed int64
	// Functional enables real float32 training; otherwise the engine
	// simulates metadata only.
	Functional bool
	// Optimizer selects the embedding optimizer (default SGD, the
	// paper's choice). Stateful optimizers allocate per-row state that
	// travels through the cache hierarchy alongside the embeddings.
	Optimizer opt.Kind
	// Workers bounds the host-side parallelism of the per-table stage
	// loops (tables are independent, so every engine fans its per-table
	// work across this many goroutines). 0 selects GOMAXPROCS; 1 forces
	// the serial path. Parallel runs produce bit-identical simulated
	// stats and functional results to Workers=1.
	Workers int
	// Shards partitions each table's scratchpad control plane across
	// this many socket shards (hash-partitioned ID space, per-shard
	// Hit-Maps/free lists/hold rings, cross-shard eviction-budget
	// coordination; see internal/shard). 0 and 1 select the unsharded
	// planner. Simulated stats and functional results are identical at
	// any shard count; Shards > 1 requires the LRU policy.
	Shards int
	// Topology places the shards of each table's scratchpad on the
	// nodes of a platform graph (sockets, hosts; see hw.Topology): the
	// cross-shard coordinator's messages are then charged to the links
	// the placement crosses and surface as Report.CoordTime. nil (or
	// any single-node topology) co-locates all shards at zero
	// coordination cost — the exact pre-topology behaviour, so every
	// figure is bit-identical to the unplaced tree.
	Topology *hw.Topology
	// Placement selects how shards spread over Topology's nodes:
	// stripe (default), range, or loadaware (greedy balance of each
	// table's per-shard query mass). Placement changes only the modeled
	// coordination latency, never plans or statistics.
	Placement hw.PlacementPolicy
	// Coord selects the cross-shard coordination protocol (see
	// internal/shard): exact (default, per-eviction rounds), hier (one
	// candidate batch per shard per Plan through a per-host aggregation
	// tier), or approx (epoch-quantized recency with zero stamp-sync
	// traffic). Exact and hier produce identical plans and statistics;
	// approx may diverge, and a same-seed hier run's Hits and Fills say
	// by how much.
	Coord shard.CoordMode
	// CoordOverlap prices ScratchPipe's distributed coordination against
	// the pipeline's one-cycle look-ahead: after each cycle, every
	// table's shard manager checks whether the NEXT Plan will sweep for
	// victims (shard.Manager.OverlapNextPlan). If so, that sweep's first
	// poll round asks for candidates already known a cycle early, so the
	// Plan prices it as hidden under the previous Collect and waits only
	// for the later rounds. Resharding and fault events clear the mark,
	// and the Plan prices every round critically. Plans, traffic
	// counters, and total coordination Seconds are bit-identical either
	// way; only the critical share charged to the [Plan] stage shrinks
	// (DESIGN.md §12). Only the ScratchPipe engine reads it, and it has
	// no effect under co-located placement or Shards == 1.
	CoordOverlap bool
	// Reshard schedules run-time shard-count transitions for the
	// dynamic-cache engines (strawman/ScratchPipe; the static and
	// hybrid engines have no dynamic scratchpad and ignore it): static
	// "iter:shards" steps and/or a load-triggered growth policy. The
	// managers then migrate their live state between Plans — plans and
	// statistics are preserved exactly — and the migrated bytes are
	// priced on Topology, surfacing as Report.MigrationTime. The zero
	// spec disables resharding; an active one requires the LRU policy.
	Reshard ReshardSpec
	// Faults is the deterministic fault-injection schedule for the
	// dynamic-cache engines (hw.ParseFaultPlan's -fail grammar): host
	// deaths evacuate their shards to the survivors, link partitions
	// degrade coordination to the approx protocol until heal, and
	// aggregator losses trigger priced re-elections — all between
	// Plans, with the pipeline never draining. An active plan requires
	// a multi-host Topology and the LRU policy; the zero plan is
	// guaranteed not to perturb a run in any way (bit-identical to the
	// fault-free tree). The recovery bill surfaces as Report.Downtime /
	// RecoveryTime / LostResidency / Availability.
	Faults hw.FaultPlan
	// CkptInterval prices a periodic scratchpad checkpoint flush every
	// this many iterations (0 disables): resident rows stream to stable
	// storage (Report.CheckpointTime), and a host death then restores
	// residency from the last flush instead of dropping it cold — the
	// knob trades per-interval flush cost against recovery point.
	CkptInterval int
	// Serve configures the online serving simulation (internal/serve):
	// RunServe plays an open-loop query stream through Serve.Replicas
	// scratchpad-holding workers behind the Serve.Router policy,
	// reusing this config's model/trace/topology/shard knobs. The zero
	// value keeps serving off and is guaranteed not to perturb any
	// training run.
	Serve serve.Options
}

// Env is the shared substrate an engine trains on: the batch stream and,
// in functional mode, the CPU embedding tables and the dense model.
type Env struct {
	Cfg    EnvConfig
	Gen    *trace.Generator
	Tables []*embed.Table
	// StateTables holds per-row optimizer state (nil for stateless
	// optimizers or metadata mode); it shadows Tables row for row.
	StateTables []*embed.Table
	Model       *dlrm.Model
	// Opt is the embedding optimizer shared by all engines of this env.
	Opt opt.SparseOptimizer
	// StateDim is the resolved per-row optimizer state width.
	StateDim int
	// Pool fans per-table work across Cfg.Workers goroutines; engines
	// built over this env share it.
	Pool *par.Pool
	// mlpIterTime caches costModel.mlpTime: it depends only on the
	// model and system configuration, and recomputing it (with its
	// layer-size slice appends) every cycle showed up in the hot-path
	// profile.
	mlpIterTime float64
	// srcTopo is the caller's topology before NewEnv's private fault
	// clone: each fork clones it afresh, exactly as a new NewEnv would.
	srcTopo *hw.Topology
	// spares pools the per-table managers that closed forks retired,
	// shared by an env and all its forks, and by every env that
	// ShareSpares joined to them (nil until the first Fork or
	// ShareSpares). Only forks draw from it and return to it, so an env
	// that is never forked keeps nothing alive. forked marks a child
	// built by Fork; live lists the managers its dynamic engines built,
	// which Close retires into spares.
	spares *managerPool
	forked bool
	live   []*shard.Manager
	// warm holds one prewarm record per table, shared by an env and all
	// its forks (nil until the first Fork, and for tables too large to
	// record): every fork's dynamic engines prewarm by replaying it.
	warm []*shard.PrewarmRecord
}

// managerPool is the spare list of retired per-table managers a forked
// sweep recycles (safe for forks running on different goroutines).
type managerPool struct {
	mu   sync.Mutex
	list []*shard.Manager
}

// NewEnv materializes an environment from cfg, which must pass
// [EnvConfig.Validate].
func NewEnv(cfg EnvConfig) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srcTopo := cfg.Topology
	if cfg.Faults.Active() {
		// The engines mutate the topology while applying fault events;
		// a private clone keeps the caller's graph pristine.
		cfg.Topology = cfg.Topology.Clone()
	}
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		NumTables:    cfg.Model.NumTables,
		RowsPerTable: cfg.Model.RowsPerTable,
		Lookups:      cfg.Model.Lookups,
		BatchSize:    cfg.Model.BatchSize,
		DenseDim:     cfg.Model.DenseDim,
		Class:        cfg.Class,
		Seed:         cfg.Seed,
		MetadataOnly: !cfg.Functional,
	})
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, Gen: gen, Pool: par.New(cfg.Workers), srcTopo: srcTopo}
	env.Opt, err = opt.New(cfg.Optimizer, cfg.Model.LR)
	if err != nil {
		return nil, err
	}
	env.StateDim = opt.EffectiveStateDim(env.Opt, cfg.Model.EmbeddingDim)
	if err := env.buildModel(); err != nil {
		return nil, err
	}
	env.mlpIterTime = costModel{env: env}.computeMLPTime()
	return env, nil
}

// buildModel materializes the functional-mode training state from the
// seed: the CPU embedding tables, their optimizer-state shadows and the
// dense model. Metadata mode has none.
func (e *Env) buildModel() error {
	cfg := e.Cfg
	if !cfg.Functional {
		return nil
	}
	for t := 0; t < cfg.Model.NumTables; t++ {
		tbl, err := embed.NewTable(cfg.Model.RowsPerTable, cfg.Model.EmbeddingDim,
			newSeededRand(cfg.Seed+int64(1000+t)))
		if err != nil {
			return err
		}
		e.Tables = append(e.Tables, tbl)
		if e.StateDim > 0 {
			st, err := embed.NewZeroTable(cfg.Model.RowsPerTable, e.StateDim)
			if err != nil {
				return err
			}
			e.StateTables = append(e.StateTables, st)
		}
	}
	m, err := dlrm.New(cfg.Model, cfg.Seed+1)
	if err != nil {
		return err
	}
	e.Model = m
	return nil
}

// Fork returns a child environment that trains exactly as a fresh
// NewEnv(e.Cfg) would: its batch stream replays e's from batch 0 (all
// forks of e read one recording, generated once, on demand), its
// dynamic engines prewarm by replaying e's per-table prewarm records
// (each drawn once, as far as the largest capacity asks), under faults
// it gets its own clone of the caller's topology, and in functional
// mode its own tables and model. The worker pool, the stateless
// optimizer and the spare pool of retired managers (which ShareSpares
// may extend across envs) are shared. Build one engine over the child
// and Close it once the run is done. Fork from one goroutine; the forks
// may then run concurrently. An env that is never forked records
// nothing.
func (e *Env) Fork() (*Env, error) {
	if e.spares == nil {
		e.spares = &managerPool{}
	}
	if e.warm == nil {
		e.warm = e.newPrewarmRecords()
	}
	child := &Env{
		Cfg: e.Cfg, Gen: e.Gen.Fork(), Opt: e.Opt, StateDim: e.StateDim, Pool: e.Pool,
		mlpIterTime: e.mlpIterTime, srcTopo: e.srcTopo, spares: e.spares, forked: true, warm: e.warm,
	}
	if e.Cfg.Faults.Active() {
		child.Cfg.Topology = e.srcTopo.Clone()
	}
	if err := child.buildModel(); err != nil {
		return nil, err
	}
	return child, nil
}

// ShareSpares makes e and its forks recycle per-table managers through
// o's spare pool, so the envs of one sweep (one per class, say) reset
// the planners each other's forks retired instead of building their
// own. Call it before e's first Fork.
func (e *Env) ShareSpares(o *Env) {
	if o.spares == nil {
		o.spares = &managerPool{}
	}
	e.spares = o.spares
}

// newPrewarmRecords returns one empty prewarm record per table, or nil
// (prewarms then draw) when the tables are too large to record.
func (e *Env) newPrewarmRecords() []*shard.PrewarmRecord {
	recs := make([]*shard.PrewarmRecord, e.Cfg.Model.NumTables)
	dists := e.Gen.Dists()
	for t := range recs {
		var err error
		if recs[t], err = shard.NewPrewarmRecord(e.Cfg.Model.RowsPerTable, prewarmSample(e.Cfg.Seed, t, dists[t])); err != nil {
			return nil
		}
	}
	return recs
}

// prewarmSample returns table t's prewarm draw stream: dist sampled from
// a generator seeded seed+3000+t.
func prewarmSample(seed int64, t int, dist trace.Distribution) func() int64 {
	rng := newSeededRand(seed + int64(3000+t))
	return func() int64 { return dist.Sample(rng) }
}

// Close retires a fork: the per-table scratchpad managers its dynamic
// engines built go to the spare pool, whose next fork (of this env or of
// any env sharing the pool) resets them in place, at any shard count,
// instead of rebuilding. Neither the fork
// nor any engine built over it may be used afterwards. On an env that
// is not a fork Close does nothing.
func (e *Env) Close() {
	if !e.forked {
		return
	}
	e.spares.mu.Lock()
	e.spares.list = append(e.spares.list, e.live...)
	e.spares.mu.Unlock()
	e.live = nil
}

// newManager builds one table's control plane for cfg. A fork resets a
// spare that a closed fork of any env sharing its pool retired, when
// there is one — keeping its slot metadata, Hit-Map, recency lists, Plan
// and hold-set pools and coordination meter (shard.Manager.Reset), which
// a sweep that runs its largest point first never has to grow — and
// remembers the manager for its own Close.
func (e *Env) newManager(cfg shard.Config) (*shard.Manager, error) {
	if !e.forked {
		return shard.New(cfg)
	}
	var m *shard.Manager
	e.spares.mu.Lock()
	if n := len(e.spares.list); n > 0 {
		m = e.spares.list[n-1]
		e.spares.list = e.spares.list[:n-1]
	}
	e.spares.mu.Unlock()
	if m == nil {
		m = &shard.Manager{}
	}
	e.live = append(e.live, m)
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// trainStep runs one functional training iteration on batch b and returns
// its loss. It is the one float program every engine executes: per table
// embed.ForwardPooled, then Model.TrainStep, then per table
// embed.DuplicateCoalesce and Opt.Apply. Engines differ only in the
// stores they hand over: rows[t] is table t's embedding rows and state[t]
// its optimizer state (state is nil for stateless optimizers) — the CPU
// tables, a static cache, or a scratchpad view. Table-wise placement
// reorders no float operation, so every engine trains bit-identically.
func (e *Env) trainStep(b *trace.Batch, rows, state []embed.RowStore) float32 {
	n := e.Cfg.Model.NumTables
	pooled := make([]*tensor.Matrix, n)
	e.Pool.ForEach(n, func(t int) {
		pooled[t] = embed.ForwardPooled(rows[t], b.Tables[t], b.BatchSize, b.Lookups)
	})
	res := e.Model.TrainStep(e.DenseMatrix(b), pooled, b.Labels)
	e.Pool.ForEach(n, func(t int) {
		g := embed.DuplicateCoalesce(b.Tables[t], res.PooledGrads[t], b.Lookups)
		var st embed.RowStore
		if state != nil {
			st = state[t]
		}
		e.Opt.Apply(rows[t], st, g)
	})
	return res.Loss
}

// rowStores views per-table stores as the embed.RowStore slice trainStep
// takes (nil for none, the stateless optimizer's state).
func rowStores[S embed.RowStore](s []S) []embed.RowStore {
	if len(s) == 0 {
		return nil
	}
	out := make([]embed.RowStore, len(s))
	for t, x := range s {
		out[t] = x
	}
	return out
}

// DenseMatrix views the batch's dense features as a matrix.
func (e *Env) DenseMatrix(b *trace.Batch) *tensor.Matrix {
	return tensor.FromSlice(b.BatchSize, b.DenseDim, b.Dense)
}

// Report summarizes one engine run for the benchmark harness. All times
// are simulated seconds.
type Report struct {
	// Engine is the engine name; Iters the number of trained batches.
	Engine string
	Iters  int
	// Wall is total simulated time; IterTime the steady-state average
	// per training iteration.
	Wall     float64
	IterTime float64
	// Figure 5 / 12a buckets (averages per iteration). For the cached
	// engines GPUTime includes everything executed on the GPU.
	CPUEmbFwd float64
	CPUEmbBwd float64
	GPUTime   float64
	// StageAvg is the average latency of each pipeline stage per
	// iteration (Figure 12b); only the dynamic-cache engines fill it.
	StageAvg [core.NumStages]float64
	// CoordTime is the average per-iteration cross-node shard
	// coordination latency (victim merge, touch-stamp sync, free-slot
	// borrowing on the placement's links; included in the Plan stage's
	// time). Zero unless shards are placed across topology nodes.
	CoordTime float64
	// CoordWallTime prices the same recorded coordination messages
	// with internal/msgplane's per-host FIFO queueing model: the
	// average per-iteration makespan of the script (critical and
	// hidden shares together). It differs from the serial CoordTime
	// exactly where the serial sum ignores rounds that overlap on
	// different hosts; benchgate gates the skew (DESIGN.md §12). Zero
	// under co-located placements.
	CoordWallTime float64
	// Overlap counts overlapped-coordination outcomes across tables
	// (shard.OverlapStats); the zero value unless the run enabled
	// overlapped coordination against a distributed placement.
	Overlap shard.OverlapStats
	// CoordMode names the cross-shard coordination protocol the run
	// used (empty for engines without a dynamic scratchpad).
	CoordMode string
	// Coord totals the coordinator's cross-node traffic over the whole
	// run, summed across tables: per-pattern message rounds and payload
	// bytes (lifetime sums, not per-iteration averages — divide by
	// Iters for a per-Plan rate). Zero under co-located placements.
	Coord shard.CoordStats
	// MigrationTime is the total modeled elastic-resharding migration
	// latency of the run (seconds), summed across tables. Unlike
	// CoordTime it is episodic, not per-iteration: it adds to Wall but
	// is excluded from IterTime, and is zero without a reshard schedule
	// or when every migration is co-located.
	MigrationTime float64
	// Resharding totals the run's reshard events and migrated state
	// entries across tables (shard.ReshardStats; zero without a
	// schedule). Resharding.Seconds == MigrationTime.
	Resharding shard.ReshardStats
	// FinalShards is the per-table shard count when the run ended —
	// reported only under an active reshard schedule (0 otherwise), so
	// load-policy growth is observable.
	FinalShards int
	// Downtime totals the modeled service-outage time of the run's
	// fault schedule: the failure-detection window charged per
	// service-affecting strike. Episodic like MigrationTime — added to
	// Wall, excluded from IterTime; zero without faults.
	Downtime float64
	// RecoveryTime totals the modeled repair bill: evacuation
	// transfers, stamp re-syncs on partition heal, aggregator
	// re-elections, and (with checkpointing) recovery-point replay.
	// Episodic; zero without faults.
	RecoveryTime float64
	// CheckpointTime totals the periodic scratchpad checkpoint flushes
	// (CkptInterval's per-interval price; zero when disabled).
	// Episodic; counts as available time — the fleet keeps serving
	// while it flushes.
	CheckpointTime float64
	// LostResidency counts scratchpad entries dropped with their dead
	// hosts (Evac.LostResident): no wire cost at the fault, repriced as
	// the cold misses that later refill them.
	LostResidency int64
	// Evac totals the run's host-evacuation activity across tables
	// (shard.EvacStats; the zero value without host deaths).
	// Evac.Seconds is included in RecoveryTime.
	Evac shard.EvacStats
	// Availability is the fraction of total wall time the fleet was
	// serving: 1 - (Downtime+RecoveryTime)/Wall. Exactly 1 for
	// fault-free runs.
	Availability float64
	// CPUBusy/GPUBusy are average per-iteration device-active times for
	// the energy model (Figure 14).
	CPUBusy float64
	GPUBusy float64
	// Hits/Misses are occurrence-level cache statistics summed over all
	// tables; Fills/Evictions count scheduled row movements.
	Hits, Misses     int64
	Fills, Evictions int64
	// ReservePeak is the §VI-D overflow high-water mark (slots), summed
	// over tables.
	ReservePeak int
	// FillCycles counts pipeline ramp-up cycles excluded from IterTime.
	FillCycles int
	// CycleStats digests the distribution of steady-state pipeline
	// cycle latencies (ScratchPipe only): tails expose cycles whose
	// batch missed on an unusually large working set.
	CycleStats metrics.Summary
	// AvgLoss is the mean training loss (functional mode only).
	AvgLoss float64
}

// HitRate returns the occurrence-level cache hit rate.
func (r *Report) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// Engine is one training-system design point.
type Engine interface {
	// Name identifies the engine ("hybrid", "static", "strawman",
	// "scratchpipe", "multigpu").
	Name() string
	// Run trains n mini-batches and returns the run report.
	Run(n int) (*Report, error)
}

// FlushTables writes any engine-side dirty cached rows back into the CPU
// tables so model state can be compared across engines. Engines that keep
// no GPU-resident dirty state implement it as a no-op.
type FlushTables interface {
	Flush() error
}

func validateIters(n int) error {
	if n <= 0 {
		return fmt.Errorf("engine: iterations %d <= 0", n)
	}
	return nil
}
