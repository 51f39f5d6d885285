package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/hw"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// dynamicState is the machinery shared by the two dynamic-cache engines
// (straw-man and ScratchPipe): per-table scratchpad managers, the
// functional GPU storage arrays, and the five stage implementations with
// their timing formulas. The straw-man executes the stages back-to-back;
// ScratchPipe runs them through the pipeline.
//
// Each table's control plane is a shard.Manager: with Shards == 1 it is
// the unsharded core scratchpad; with Shards > 1 its ID space is
// hash-partitioned across socket shards that plan concurrently (within a
// table) while the per-table fan-out parallelizes across tables, with
// plans and statistics identical at every shard/worker count.
type dynamicState struct {
	env  *Env
	cost costModel
	// pool fans per-table work across workers; tables are fully
	// independent (separate scratchpads, storage, CPU tables).
	pool    *par.Pool
	sps     []*shard.Manager
	storage []*tensor.Matrix // per table: TotalSlots x dim (functional mode)
	// stateStorage shadows storage for per-row optimizer state: the
	// scratchpad caches optimizer accumulators with the same slot
	// assignment, prefetching them at [Collect] and writing them back
	// at [Insert] exactly like the embedding rows.
	stateStorage []*tensor.Matrix
	hazard       *core.HazardChecker
	// jobPool recycles spJobs (and, through Scratchpad.Recycle, their
	// plans) once batches retire, keeping the steady-state cycle free
	// of per-batch allocations.
	jobPool []*spJob
	// gpus > 1 models the §VI-G multi-GPU extension: tables are
	// partitioned table-wise across gpus GPUs, each running its own
	// per-table cache manager. GPU-side stage work and PCIe traffic
	// divide across devices/links; the CPU-side gathers and write-backs
	// do NOT — the single socket's DRAM is shared, which is exactly why
	// the paper expects multi-GPU ScratchPipe to underutilize GPUs.
	gpus int

	// Elastic-resharding state (reshard.go): reshardNext cursors the
	// static schedule, loadSnap is the load policy's last probe
	// snapshot, migrationSecs accumulates the modeled migration latency
	// across all reshard events and tables.
	reshardNext   int
	loadSnap      []int64
	migrationSecs float64

	// Fault-injection state (fault.go): pristineTopo is the restore
	// source for link heals, faultNext cursors the sorted schedule,
	// heals holds struck link events awaiting their heal iteration,
	// deadHosts accumulates host deaths, and partitions counts active
	// link partitions (the managers run degraded while > 0).
	// downtimeSecs/recoverySecs/ckptSecs feed Report.Downtime/
	// RecoveryTime/CheckpointTime; lastCkpt is the iteration of the
	// most recent priced checkpoint flush (-1 before the first).
	pristineTopo *hw.Topology
	faultNext    int
	heals        []hw.FaultEvent
	deadHosts    map[int]bool
	partitions   int
	downtimeSecs float64
	recoverySecs float64
	ckptSecs     float64
	lastCkpt     int
}

// spJob is the per-mini-batch pipeline state (core.Job).
type spJob struct {
	batch *trace.Batch
	// futT[t][k] is table t's ID list of the batch k+1 positions ahead
	// (the hazard window), captured at Load time from the dataset
	// look-ahead; hintT carries batches beyond the hazard window for
	// eviction-preference hints. Stored per table so each table's Plan
	// reads its own column without per-call projection buffers.
	futT  [][][]int64
	hintT [][][]int64
	plans []*core.PlanResult
	// fillVals/evictVals stage the embedding payloads between Collect
	// and Insert (the data "crossing PCIe" at Exchange). Indexed per
	// table, concatenated row-major. fillState/evictState carry the
	// optimizer-state rows of the same schedule.
	fillVals   [][]float32
	evictVals  [][]float32
	fillState  [][]float32
	evictState [][]float32
	// tCPU/tGPU are per-table scratch accumulators for the parallel
	// fan-outs. Stage bodies write tCPU[t]/tGPU[t]; the reduction runs
	// serially in table order afterward, so a parallel run sums floats
	// in exactly the order Workers=1 does (bit-identical timing).
	tCPU, tGPU []float64
	// tCoord collects each table's cross-node shard-coordination
	// latency for the Plan just executed; coord accumulates the batch's
	// total (zero under co-located placement). tCoordCrit/tCoordWall
	// are its overlapped-coordination companions: the critical share
	// the Plan actually waited for (== tCoord unless the Plan hid its
	// first poll round) and the message plane's measured wall twin.
	// coordHidden is the batch's hidden share (coord - critical): it
	// occupies the coordinator concurrently with the cycle's other
	// stages, so the cycle wall floors on it.
	tCoord      []float64
	tCoordCrit  []float64
	tCoordWall  []float64
	coord       float64
	coordWall   float64
	coordHidden float64
	stageTime   [core.NumStages]float64
	// stageCPU is the CPU-memory-bound component of each stage, used by
	// the optional contention model (concurrent stages sharing the one
	// CPU socket's DRAM bandwidth serialize in the worst case).
	stageCPU [core.NumStages]float64
	cpuBusy  float64
	gpuBusy  float64
	loss     float32
}

// Seq implements core.Job.
func (j *spJob) Seq() int { return j.batch.Seq }

func newDynamicState(env *Env, cacheFrac float64, policy cache.PolicyKind, past, future int, hazard *core.HazardChecker) (*dynamicState, error) {
	if cacheFrac <= 0 || cacheFrac > 1 {
		return nil, fmt.Errorf("engine: dynamic cache: cacheFrac %g out of (0,1]", cacheFrac)
	}
	cfg := env.Cfg.Model
	slots := int(cacheFrac * float64(cfg.RowsPerTable))
	if slots < 1 {
		slots = 1
	}
	d := &dynamicState{env: env, cost: costModel{env: env}, pool: env.Pool, hazard: hazard, gpus: 1, lastCkpt: -1}
	if env.Cfg.Faults.Active() {
		d.pristineTopo = env.Cfg.Topology.Clone()
		d.deadHosts = make(map[int]bool)
	}
	// Fault injection rides on the reshard machinery (evacuation is the
	// same-S corner of it), so an active fault plan also builds the
	// managers elastic.
	elastic := env.Cfg.Reshard.Active() || env.Cfg.Faults.Active()
	if elastic && env.Cfg.Reshard.MaxShards() > 1 && policy != cache.LRU {
		return nil, fmt.Errorf("engine: reshard schedule reaching %d shards requires the %q policy, got %q",
			env.Cfg.Reshard.MaxShards(), cache.LRU, policy)
	}
	maxUnique := cfg.BatchSize * cfg.Lookups
	// The shard fan-out nests inside the per-table fan-out, so its own
	// pool gets the per-table share of the Workers budget (total
	// concurrency stays ~Workers rather than Workers x Shards); on hosts
	// with more cores than tables the surplus parallelizes the shards.
	shardPool := par.New((env.Pool.Workers() + cfg.NumTables - 1) / cfg.NumTables)
	for t := 0; t < cfg.NumTables; t++ {
		spCfg := core.Config{
			Slots:        slots,
			Policy:       policy,
			PolicySeed:   env.Cfg.Seed + int64(2000+t),
			PastWindow:   past,
			FutureWindow: future,
		}
		spCfg.Reserve = core.WorstCaseReserve(spCfg, maxUnique)
		place, err := placementFor(env, t, env.Cfg.Shards)
		if err != nil {
			return nil, err
		}
		sp, err := env.newManager(shard.Config{
			Scratchpad:   spCfg,
			Shards:       env.Cfg.Shards,
			Pool:         shardPool,
			Placement:    place,
			Coord:        env.Cfg.Coord,
			CoordQuantum: env.Cfg.CoordQuantum,
			Elastic:      elastic,
			LoadProbe:    env.Cfg.Reshard.LoadMax > 1,
		})
		if err != nil {
			return nil, err
		}
		d.sps = append(d.sps, sp)
		if env.Cfg.Functional {
			d.storage = append(d.storage, tensor.New(sp.TotalSlots(), cfg.EmbeddingDim))
			if env.StateDim > 0 {
				d.stateStorage = append(d.stateStorage, tensor.New(sp.TotalSlots(), env.StateDim))
			}
		}
	}
	return d, nil
}

// prewarm fills every table's scratchpad to capacity with draws from the
// trace distribution, approximating LRU steady-state content so measured
// iterations reflect warm-cache behaviour rather than a cold start. In
// functional mode the drawn rows' values are copied into GPU storage, so
// training results are unchanged.
func (d *dynamicState) prewarm() {
	dists := d.env.Gen.Dists()
	d.pool.ForEach(len(d.sps), func(t int) {
		sp := d.sps[t]
		rng := newSeededRand(d.env.Cfg.Seed + int64(3000+t))
		dist := dists[t]
		var onFill func(id int64, slot int32)
		if d.env.Cfg.Functional {
			tbl := d.env.Tables[t]
			storage := d.storage[t]
			var stateTbl *embed.Table
			var stateStorage *tensor.Matrix
			if d.stateStorage != nil {
				stateTbl = d.env.StateTables[t]
				stateStorage = d.stateStorage[t]
			}
			onFill = func(id int64, slot int32) {
				copy(storage.Row(int(slot)), tbl.Row(id))
				if stateStorage != nil {
					copy(stateStorage.Row(int(slot)), stateTbl.Row(id))
				}
			}
		}
		sp.PrewarmRows(d.env.Cfg.Model.RowsPerTable, func() int64 { return dist.Sample(rng) }, onFill)
	})
}

// getJob pops a recycled job or builds one with every per-table buffer
// preallocated.
func (d *dynamicState) getJob() *spJob {
	if n := len(d.jobPool); n > 0 {
		job := d.jobPool[n-1]
		d.jobPool[n-1] = nil
		d.jobPool = d.jobPool[:n-1]
		return job
	}
	nt := d.env.Cfg.Model.NumTables
	return &spJob{
		futT:       make([][][]int64, nt),
		hintT:      make([][][]int64, nt),
		plans:      make([]*core.PlanResult, nt),
		fillVals:   make([][]float32, nt),
		evictVals:  make([][]float32, nt),
		fillState:  make([][]float32, nt),
		evictState: make([][]float32, nt),
		tCPU:       make([]float64, nt),
		tGPU:       make([]float64, nt),
		tCoord:     make([]float64, nt),
		tCoordCrit: make([]float64, nt),
		tCoordWall: make([]float64, nt),
	}
}

// recycleJob returns a fully retired job to the pool, handing its plans
// back to their scratchpads. The caller must not read the job (or its
// plans) afterward.
func (d *dynamicState) recycleJob(job *spJob) {
	if job == nil {
		return
	}
	for t, plan := range job.plans {
		if plan != nil {
			d.sps[t].Recycle(plan)
			job.plans[t] = nil
		}
	}
	for t := range job.futT {
		job.futT[t] = job.futT[t][:0]
	}
	for t := range job.hintT {
		job.hintT[t] = job.hintT[t][:0]
	}
	// The batch has left the loader window and every job that looked
	// ahead at it retired earlier (jobs retire in FIFO order), so no
	// reference into it survives.
	d.env.Gen.Recycle(job.batch)
	job.batch = nil
	job.stageTime = [core.NumStages]float64{}
	job.stageCPU = [core.NumStages]float64{}
	job.cpuBusy, job.gpuBusy = 0, 0
	job.coord, job.coordWall, job.coordHidden = 0, 0, 0
	job.loss = 0
	d.jobPool = append(d.jobPool, job)
}

// newJob captures the batch at the loader head plus references to the next
// `future` batches' ID lists (hazard window) and, beyond that, up to
// `lookahead` batches of eviction hints, then advances the loader. Batches
// are immutable after generation, so sharing the references across
// concurrently executing stages is race-free.
func (d *dynamicState) newJob(loader *trace.Loader, future, lookahead int) *spJob {
	job := d.getJob()
	nt := d.env.Cfg.Model.NumTables
	// Look-ahead carries the distinct-ID lists: pinning is idempotent,
	// so probing each future ID once is equivalent to (and much cheaper
	// than) walking its occurrence stream.
	for k := 1; k <= future; k++ {
		b := loader.Peek(k)
		for t := 0; t < nt; t++ {
			job.futT[t] = append(job.futT[t], b.UniqueIDs(t))
		}
	}
	for k := future + 1; k <= lookahead; k++ {
		b := loader.Peek(k)
		for t := 0; t < nt; t++ {
			job.hintT[t] = append(job.hintT[t], b.UniqueIDs(t))
		}
	}
	job.batch = loader.Advance()
	// Materialize the distinct-ID lists serially so stagePlan's
	// per-table fan-out only reads them (generator batches already
	// carry them; this is a memo check).
	job.batch.EnsureUnique()
	return job
}

// stagePlan runs [Plan] for every table: Hit-Map queries, victim planning,
// hold registration. Simulated cost: the sparse IDs cross PCIe and the GPU
// probes its Hit-Map structures.
func (d *dynamicState) stagePlan(job *spJob) error {
	cfg := d.env.Cfg.Model
	err := d.pool.ForEachErr(cfg.NumTables, func(t int) error {
		uniq, cnt := job.batch.UniqueWithCounts(t)
		plan, err := d.sps[t].PlanUniqueWithHints(job.batch.Seq, uniq, cnt, job.futT[t], job.hintT[t])
		if err != nil {
			return err
		}
		job.plans[t] = plan
		// Hash-probe traffic: key+value per ID occurrence (the GPU
		// probes its Hit-Map once per lookup).
		job.tGPU[t] = d.env.Cfg.System.GPU.RandomTime(float64(len(job.batch.Tables[t])) * 16)
		// Cross-node coordination latency this table's placement just
		// paid (zero when its shards are co-located). The critical
		// share is what this Plan actually waited for — the rest (its
		// first poll round, under overlap) was hidden under the previous
		// cycle; the wall figure is the message plane's measured twin.
		job.tCoord[t] = d.sps[t].LastPlanCoord()
		job.tCoordCrit[t] = d.sps[t].LastPlanCoordCritical()
		job.tCoordWall[t] = d.sps[t].LastPlanCoordWall()
		return nil
	})
	if err != nil {
		return err
	}
	totalIDs := 0
	var gpuProbe, coord, coordCrit, coordWall float64
	for t := 0; t < cfg.NumTables; t++ {
		totalIDs += len(job.batch.Tables[t])
		gpuProbe += job.tGPU[t]
		coord += job.tCoord[t]
		coordCrit += job.tCoordCrit[t]
		coordWall += job.tCoordWall[t]
	}
	// The per-table coordinators contend for the same inter-node links,
	// so their communication serializes (sum, not max) on top of the
	// local Plan work. Only the critical share blocks the stage; the
	// hidden remainder runs concurrently with the cycle and is floored
	// into the cycle wall by the run loop.
	tTime := d.cost.pcie(idBytes(totalIDs))/d.links() + gpuProbe/float64(d.gpus) + coordCrit
	job.stageTime[core.StagePlan] = tTime
	job.coord += coord
	job.coordWall += coordWall
	job.coordHidden += coord - coordCrit
	job.gpuBusy += gpuProbe
	return nil
}

// links returns the number of independent CPU-GPU PCIe links available
// (one per GPU pair on p3-class hosts).
func (d *dynamicState) links() float64 {
	if d.gpus <= 1 {
		return 1
	}
	return float64((d.gpus + 1) / 2)
}

// stageCollect gathers the missed rows from the CPU tables and the victim
// rows from the GPU scratchpad into staging buffers.
func (d *dynamicState) stageCollect(job *spJob) error {
	cfg := d.env.Cfg.Model
	dim := cfg.EmbeddingDim
	sdim := d.env.StateDim
	d.pool.ForEach(cfg.NumTables, func(t int) {
		plan := job.plans[t]
		job.tCPU[t] = d.cost.gatherCPU(len(plan.Fills)) +
			d.cost.stateMoveCPU(len(plan.Fills))
		job.tGPU[t] = d.cost.gatherGPU(len(plan.Evictions)) +
			d.cost.stateMoveGPU(len(plan.Evictions))
		if d.hazard != nil {
			for _, f := range plan.Fills {
				d.hazard.Access(core.StageCollect, core.ResCPURow, t, f.ID, false, job.batch.Seq)
			}
			for _, e := range plan.Evictions {
				d.hazard.Access(core.StageCollect, core.ResGPUSlot, t, int64(e.Slot), false, job.batch.Seq)
			}
		}
		if d.env.Cfg.Functional {
			fv := resizeF32(job.fillVals[t], len(plan.Fills)*dim)
			for i, f := range plan.Fills {
				copy(fv[i*dim:(i+1)*dim], d.env.Tables[t].Row(f.ID))
			}
			job.fillVals[t] = fv
			ev := resizeF32(job.evictVals[t], len(plan.Evictions)*dim)
			for i, e := range plan.Evictions {
				copy(ev[i*dim:(i+1)*dim], d.storage[t].Row(int(e.Slot)))
			}
			job.evictVals[t] = ev
			if d.stateStorage != nil {
				fs := resizeF32(job.fillState[t], len(plan.Fills)*sdim)
				for i, f := range plan.Fills {
					copy(fs[i*sdim:(i+1)*sdim], d.env.StateTables[t].Row(f.ID))
				}
				job.fillState[t] = fs
				es := resizeF32(job.evictState[t], len(plan.Evictions)*sdim)
				for i, e := range plan.Evictions {
					copy(es[i*sdim:(i+1)*sdim], d.stateStorage[t].Row(int(e.Slot)))
				}
				job.evictState[t] = es
			}
		}
	})
	var cpuT, gpuT float64
	for t := 0; t < cfg.NumTables; t++ {
		cpuT += job.tCPU[t]
		gpuT += job.tGPU[t]
	}
	job.stageTime[core.StageCollect] = maxf(cpuT, gpuT/float64(d.gpus))
	job.stageCPU[core.StageCollect] = cpuT
	job.cpuBusy += cpuT
	job.gpuBusy += gpuT
	return nil
}

// resizeF32 returns buf with exactly n elements, reusing its capacity;
// contents are undefined (callers overwrite every element).
func resizeF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// stageExchange ships staged rows across PCIe: fills CPU->GPU concurrently
// with eviction write-backs GPU->CPU (full duplex).
func (d *dynamicState) stageExchange(job *spJob) error {
	var up, down int
	for _, plan := range job.plans {
		up += len(plan.Fills)
		down += len(plan.Evictions)
	}
	upBytes := d.cost.embBytes(up) + d.cost.stateBytes(up)
	downBytes := d.cost.embBytes(down) + d.cost.stateBytes(down)
	links := d.links()
	job.stageTime[core.StageExchange] = d.cost.pcieDuplex(upBytes/links, downBytes/links)
	return nil
}

// stageInsert fills missed rows into the scratchpad and writes evicted
// rows back into the CPU tables.
func (d *dynamicState) stageInsert(job *spJob) error {
	cfg := d.env.Cfg.Model
	dim := cfg.EmbeddingDim
	sdim := d.env.StateDim
	d.pool.ForEach(cfg.NumTables, func(t int) {
		plan := job.plans[t]
		job.tGPU[t] = d.cost.scatterWriteGPU(len(plan.Fills)) +
			d.cost.stateMoveGPU(len(plan.Fills))
		job.tCPU[t] = d.cost.scatterWriteCPU(len(plan.Evictions)) +
			d.cost.stateMoveCPU(len(plan.Evictions))
		if d.hazard != nil {
			for _, f := range plan.Fills {
				d.hazard.Access(core.StageInsert, core.ResGPUSlot, t, int64(f.Slot), true, job.batch.Seq)
			}
			for _, e := range plan.Evictions {
				d.hazard.Access(core.StageInsert, core.ResCPURow, t, e.OldID, true, job.batch.Seq)
			}
		}
		if d.env.Cfg.Functional {
			fv := job.fillVals[t]
			for i, f := range plan.Fills {
				copy(d.storage[t].Row(int(f.Slot)), fv[i*dim:(i+1)*dim])
			}
			ev := job.evictVals[t]
			for i, e := range plan.Evictions {
				copy(d.env.Tables[t].Row(e.OldID), ev[i*dim:(i+1)*dim])
			}
			if d.stateStorage != nil {
				fs := job.fillState[t]
				for i, f := range plan.Fills {
					copy(d.stateStorage[t].Row(int(f.Slot)), fs[i*sdim:(i+1)*sdim])
				}
				es := job.evictState[t]
				for i, e := range plan.Evictions {
					copy(d.env.StateTables[t].Row(e.OldID), es[i*sdim:(i+1)*sdim])
				}
			}
		}
	})
	var cpuT, gpuT float64
	for t := 0; t < cfg.NumTables; t++ {
		cpuT += job.tCPU[t]
		gpuT += job.tGPU[t]
	}
	job.stageTime[core.StageInsert] = maxf(cpuT, gpuT/float64(d.gpus))
	job.stageCPU[core.StageInsert] = cpuT
	job.cpuBusy += cpuT
	job.gpuBusy += gpuT
	return nil
}

// cacheView adapts one table's scratchpad storage + a batch's plan into an
// embed.RowStore, so [Train] runs the canonical primitives unchanged but
// at "GPU memory speed".
type cacheView struct {
	dim     int
	storage *tensor.Matrix
	plan    *core.PlanResult
}

func (v cacheView) Dim() int { return v.dim }

func (v cacheView) Row(id int64) []float32 {
	return v.storage.Row(int(v.plan.Slot(id)))
}

// stageTrain runs the whole model-training step against the scratchpad:
// embedding forward, MLP forward/backward, gradient coalescing, and the
// embedding parameter update. All embedding traffic hits GPU memory — the
// cache "always hits" by construction.
func (d *dynamicState) stageTrain(job *spJob) error {
	cfg := d.env.Cfg.Model
	d.pool.ForEach(cfg.NumTables, func(t int) {
		plan := job.plans[t]
		uniq := len(plan.UniqueIDs)
		job.tGPU[t] = d.cost.gatherGPU(job.batch.TotalIDs()) +
			d.cost.reduceGPU(job.batch.TotalIDs(), cfg.BatchSize) +
			d.cost.dupCoalesceGPU(cfg.BatchSize, job.batch.TotalIDs(), uniq) +
			d.cost.scatterUpdateGPU(uniq) +
			d.cost.stateUpdateGPU(uniq)
		if d.hazard != nil {
			for _, slot := range plan.Slots {
				d.hazard.Access(core.StageTrain, core.ResGPUSlot, t, int64(slot), true, job.batch.Seq)
			}
		}
	})
	var embT float64
	for t := 0; t < cfg.NumTables; t++ {
		embT += job.tGPU[t]
	}
	var gpuT float64
	if d.gpus > 1 {
		// Table-wise model parallelism: each GPU trains its tables'
		// embedding ops locally, exchanges pooled outputs/gradients
		// all-to-all, and data-parallel-trains the MLPs (cf. §VI-G
		// and the MultiGPU engine).
		g := float64(d.gpus)
		sys := d.env.Cfg.System
		flops := mlpFlopsPerIteration(cfg)
		mlp := sys.GPU.MatmulTime(flops/g, 3*2*4*(mlpParamCount(cfg)+mlpActivationFloats(cfg))/g) + sys.GPU.IterOverhead
		tablesPerGPU := (float64(cfg.NumTables) + g - 1) / g
		a2aBytes := d.cost.pooledBytes() * tablesPerGPU * (g - 1) / g
		comm := 2*sys.NVLink.TransferTime(a2aBytes) +
			sys.NVLink.TransferTime(2*mlpParamCount(cfg)*4*(g-1)/g)
		gpuT = embT/g + mlp + comm
	} else {
		gpuT = embT + d.cost.mlpTime()
	}
	job.stageTime[core.StageTrain] = gpuT
	job.gpuBusy += gpuT

	if d.env.Cfg.Functional {
		b := job.batch
		pooled := make([]*tensor.Matrix, cfg.NumTables)
		views := make([]cacheView, cfg.NumTables)
		d.pool.ForEach(cfg.NumTables, func(t int) {
			views[t] = cacheView{dim: cfg.EmbeddingDim, storage: d.storage[t], plan: job.plans[t]}
			pooled[t] = embed.ForwardPooled(views[t], b.Tables[t], b.BatchSize, b.Lookups)
		})
		res := d.env.Model.TrainStep(d.env.DenseMatrix(b), pooled, b.Labels)
		d.pool.ForEach(cfg.NumTables, func(t int) {
			g := embed.DuplicateCoalesce(b.Tables[t], res.PooledGrads[t], b.Lookups)
			var state embed.RowStore
			if d.stateStorage != nil {
				state = cacheView{dim: d.env.StateDim, storage: d.stateStorage[t], plan: job.plans[t]}
			}
			d.env.Opt.Apply(views[t], state, g)
		})
		job.loss = res.Loss
	}
	return nil
}

// release drops the job's hold protection on every table; the engine calls
// it exactly when the job enters [Train] (see Scratchpad.Release).
func (d *dynamicState) release(job *spJob) error {
	return d.pool.ForEachErr(len(d.sps), func(t int) error {
		return d.sps[t].Release(job.batch.Seq)
	})
}

// flush writes every dirty cached row (and its optimizer state) back to
// the CPU tables.
func (d *dynamicState) flush() error {
	if !d.env.Cfg.Functional {
		return nil
	}
	d.pool.ForEach(len(d.sps), func(t int) {
		sp := d.sps[t]
		tbl := d.env.Tables[t]
		storage := d.storage[t]
		var stateTbl *embed.Table
		var stateStorage *tensor.Matrix
		if d.stateStorage != nil {
			stateTbl = d.env.StateTables[t]
			stateStorage = d.stateStorage[t]
		}
		sp.ForEach(func(id int64, slot int32) {
			copy(tbl.Row(id), storage.Row(int(slot)))
			if stateStorage != nil {
				copy(stateTbl.Row(id), stateStorage.Row(int(slot)))
			}
		})
	})
	return nil
}

// aggregateCacheStats folds per-table scratchpad statistics — cache
// counters, cross-node coordination traffic, and approx-mode divergence
// — into a report.
func (d *dynamicState) aggregateCacheStats(rep *Report) {
	for _, sp := range d.sps {
		st := sp.Stats()
		rep.Hits += st.Hits
		rep.Misses += st.Misses
		rep.Fills += st.Fills
		rep.Evictions += st.Evictions
		rep.ReservePeak += st.ReservePeak
		rep.Coord.Merge(sp.CoordStats())
		rep.Overlap.Merge(sp.OverlapStats())
		rep.CoordDivergence.Merge(sp.Divergence())
		rep.Resharding.Merge(sp.ReshardStats())
		rep.Evac.Merge(sp.EvacStats())
	}
	if len(d.sps) > 0 {
		rep.CoordMode = string(d.sps[0].CoordMode())
	}
	rep.MigrationTime = d.migrationSecs
	if d.env.Cfg.Reshard.Active() && len(d.sps) > 0 {
		rep.FinalShards = d.sps[0].Shards()
	}
	rep.Downtime = d.downtimeSecs
	rep.RecoveryTime = d.recoverySecs
	rep.CheckpointTime = d.ckptSecs
	rep.LostResidency = rep.Evac.LostResident
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
