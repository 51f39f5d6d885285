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
// functional row planes, and the five stage implementations with their
// timing formulas. The straw-man executes the stages back-to-back;
// ScratchPipe runs them through the pipeline.
//
// Each table's control plane is a shard.Manager: with Shards == 1 it
// plans one pad over the whole ID space; with Shards > 1 its ID space is
// hash-partitioned across socket shards that plan concurrently (within a
// table) while the per-table fan-out parallelizes across tables, with
// plans and statistics identical at every shard/worker count.
type dynamicState struct {
	env  *Env
	cost costModel
	// pool fans per-table work across workers; tables are fully
	// independent (separate scratchpads, storage, CPU tables).
	pool   *par.Pool
	sps    []*shard.Manager
	planes []rowPlane
	// jobPool recycles spJobs (and, through shard.Manager.Recycle, their
	// plans) once batches retire, keeping the steady-state cycle free
	// of per-batch allocations. It is sized for a full pipeline (at
	// most one job per stage is ever outstanding), so it never grows.
	jobPool []*spJob
	// gpus > 1 models the §VI-G multi-GPU extension: tables are
	// partitioned table-wise across gpus GPUs, each running its own
	// per-table cache manager. GPU-side stage work and PCIe traffic
	// divide across devices/links; the CPU-side gathers and write-backs
	// do NOT — the single socket's DRAM is shared, which is exactly why
	// the paper expects multi-GPU ScratchPipe to underutilize GPUs.
	gpus int

	// Resharding state (reshard.go): reshardNext cursors the static
	// schedule; loads holds each table's query-mass histogram for the
	// load policy (nil without one) and loadSnap the policy's last
	// summed snapshot; migrationSecs accumulates the modeled migration
	// latency across all reshard events and tables.
	reshardNext   int
	loads         [][]int64
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

// rowPlane is one per-row payload the scratchpad caches: cpu[t] holds it
// for every row of table t and gpu[t] (TotalSlots rows) for the resident
// ones. planes[0] carries the embeddings; a stateful optimizer adds the
// second and last plane for its per-row state, which shares the embedding plane's
// slot assignment and so moves with it — drawn at prewarm, prefetched at
// [Collect], written back at [Insert] and flushed. Metadata mode has no
// planes, so every payload loop is empty there.
type rowPlane struct {
	cpu []*embed.Table
	gpu []*tensor.Matrix
}

// stagedRows holds one plane's payloads between Collect and Insert (the
// data "crossing PCIe" at Exchange), concatenated row-major.
type stagedRows struct{ fills, evicts []float32 }

// spJob is the per-mini-batch pipeline state (core.Job). Everything a
// job holds per table lives in one block, tabs, so a job is built from
// at most three allocations (the job, tabs, and the backing array of its
// look-ahead windows) and recycled whole once its batch retires.
//
// The per-table stage bodies are spJob methods run through par.Each
// with the job as the argument: they reach the engine state through the
// back-pointer d and capture nothing, so a warm cycle allocates nothing.
// The job, not the dynamicState, carries each stage's inputs because the
// pipeline runs different jobs' stages concurrently.
type spJob struct {
	d     *dynamicState
	batch *trace.Batch
	tabs  []jobTable
	// coord accumulates the batch's cross-node shard-coordination
	// latency (zero under co-located placement) and coordWall the
	// message plane's measured wall twin. coordHidden is the batch's
	// hidden share (coord minus the critical share its Plan waited
	// for): it occupies the coordinator concurrently with the cycle's
	// other stages, so the cycle wall floors on it.
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

// jobTable is one table's share of a job.
type jobTable struct {
	// fut[k] is the table's distinct-ID list of the batch k+1 positions
	// ahead (the hazard window), captured at Load time from the dataset
	// look-ahead; hint carries batches beyond the hazard window for
	// eviction-preference hints. Both are fixed-capacity windows into
	// the job's one backing array, so newJob's appends never grow them.
	fut, hint [][]int64
	plan      *core.PlanResult
	// staged[p] carries plane p's rows of the plan's schedule (there
	// are at most two planes: embeddings and optimizer state).
	staged [2]stagedRows
	// cpu/gpu are scratch accumulators for the parallel fan-outs. Stage
	// bodies write them; the reduction runs serially in table order
	// afterward, so a parallel run sums floats in exactly the order
	// Workers=1 does (bit-identical timing).
	cpu, gpu float64
	// coord is the cross-node coordination latency of the Plan just
	// executed; coordCrit is the critical share the Plan actually
	// waited for (== coord unless the Plan hid its first poll round)
	// and coordWall the message plane's measured wall twin.
	coord, coordCrit, coordWall float64
}

// Seq implements core.Job.
func (j *spJob) Seq() int { return j.batch.Seq }

func newDynamicState(env *Env, cacheFrac float64, policy cache.PolicyKind, past, future int) (*dynamicState, error) {
	if cacheFrac <= 0 || cacheFrac > 1 {
		return nil, fmt.Errorf("engine: dynamic cache: cacheFrac %g out of (0,1]", cacheFrac)
	}
	cfg := env.Cfg.Model
	slots := int(cacheFrac * float64(cfg.RowsPerTable))
	if slots < 1 {
		slots = 1
	}
	d := &dynamicState{
		env: env, cost: costModel{env: env}, pool: env.Pool, gpus: 1, lastCkpt: -1,
		jobPool: make([]*spJob, 0, core.NumStages),
	}
	if env.Cfg.Faults.Active() {
		d.pristineTopo = env.Cfg.Topology.Clone()
		d.deadHosts = make(map[int]bool)
	}
	// Resharding re-threads LRU recency state, and fault injection rides
	// on it (evacuation is its same-S corner).
	if (env.Cfg.Reshard.Active() || env.Cfg.Faults.Active()) && policy != cache.LRU {
		return nil, fmt.Errorf("engine: resharding and fault injection require the %q policy, got %q", cache.LRU, policy)
	}
	if env.Cfg.Reshard.LoadMax > 1 {
		d.loads = make([][]int64, cfg.NumTables)
		for t := range d.loads {
			d.loads[t] = make([]int64, loadBuckets)
		}
	}
	if env.Cfg.Functional {
		d.planes = append(d.planes, rowPlane{cpu: env.Tables})
		if env.StateTables != nil {
			d.planes = append(d.planes, rowPlane{cpu: env.StateTables})
		}
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
			Rows:         cfg.RowsPerTable,
		}
		spCfg.Reserve = core.WorstCaseReserve(spCfg, maxUnique)
		place, err := placementFor(env, t, env.Cfg.Shards)
		if err != nil {
			return nil, err
		}
		sp, err := env.newManager(shard.Config{
			Scratchpad: spCfg,
			Shards:     env.Cfg.Shards,
			Pool:       shardPool,
			Placement:  place,
			Coord:      env.Cfg.Coord,
		})
		if err != nil {
			return nil, err
		}
		d.sps = append(d.sps, sp)
		for p := range d.planes {
			pl := &d.planes[p]
			pl.gpu = append(pl.gpu, tensor.New(sp.TotalSlots(), pl.cpu[t].Dim()))
		}
	}
	return d, nil
}

// prewarm fills every table's scratchpad to capacity with draws from the
// trace distribution, approximating LRU steady-state content so measured
// iterations reflect warm-cache behaviour rather than a cold start. A
// fork replays its env's prewarm record of the draws instead of drawing
// them. Every plane copies the inserted rows into its GPU slots, so
// training results are unchanged.
func (d *dynamicState) prewarm() {
	dists := d.env.Gen.Dists()
	d.pool.ForEach(len(d.sps), func(t int) {
		var onFill func(id int64, slot int32)
		if len(d.planes) > 0 {
			onFill = func(id int64, slot int32) {
				for _, pl := range d.planes {
					copy(pl.gpu[t].Row(int(slot)), pl.cpu[t].Row(id))
				}
			}
		}
		if d.env.warm != nil {
			d.sps[t].PrewarmFrom(d.env.warm[t], onFill)
			return
		}
		d.sps[t].PrewarmRows(d.env.Cfg.Model.RowsPerTable, prewarmSample(d.env.Cfg.Seed, t, dists[t]), onFill)
	})
}

// getJob pops a recycled job or builds one whose look-ahead windows hold
// future hazard-window and hints hint batches per table.
func (d *dynamicState) getJob(future, hints int) *spJob {
	if n := len(d.jobPool); n > 0 {
		job := d.jobPool[n-1]
		d.jobPool[n-1] = nil
		d.jobPool = d.jobPool[:n-1]
		return job
	}
	job := &spJob{d: d, tabs: make([]jobTable, d.env.Cfg.Model.NumTables)}
	if w := future + hints; w > 0 {
		win := make([][]int64, len(job.tabs)*w)
		for t := range job.tabs {
			lo := t * w
			job.tabs[t].fut = win[lo : lo : lo+future]
			job.tabs[t].hint = win[lo+future : lo+future : lo+w]
		}
	}
	return job
}

// recycleJob returns a fully retired job to the pool, handing its plans
// back to their scratchpads. The caller must not read the job (or its
// plans) afterward.
func (d *dynamicState) recycleJob(job *spJob) {
	if job == nil {
		return
	}
	for t := range job.tabs {
		tb := &job.tabs[t]
		if tb.plan != nil {
			d.sps[t].Recycle(tb.plan)
			tb.plan = nil
		}
		tb.fut = tb.fut[:0]
		tb.hint = tb.hint[:0]
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
	job := d.getJob(future, lookahead-future)
	// Look-ahead carries the distinct-ID lists: pinning is idempotent,
	// so probing each future ID once is equivalent to (and much cheaper
	// than) walking its occurrence stream.
	for k := 1; k <= future; k++ {
		b := loader.Peek(k)
		for t := range job.tabs {
			job.tabs[t].fut = append(job.tabs[t].fut, b.UniqueIDs(t))
		}
	}
	for k := future + 1; k <= lookahead; k++ {
		b := loader.Peek(k)
		for t := range job.tabs {
			job.tabs[t].hint = append(job.tabs[t].hint, b.UniqueIDs(t))
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
	if err := par.Each(d.pool, len(job.tabs), job, (*spJob).planTable); err != nil {
		return err
	}
	totalIDs := 0
	var gpuProbe, coord, coordCrit, coordWall float64
	for t := range job.tabs {
		tb := &job.tabs[t]
		totalIDs += len(job.batch.Tables[t])
		gpuProbe += tb.gpu
		coord += tb.coord
		coordCrit += tb.coordCrit
		coordWall += tb.coordWall
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

// planTable is stagePlan's body for table t.
func (j *spJob) planTable(t int) error {
	d, tb, sp := j.d, &j.tabs[t], j.d.sps[t]
	uniq, cnt := j.batch.UniqueWithCounts(t)
	plan, err := sp.PlanUniqueWithHints(j.batch.Seq, uniq, cnt, tb.fut, tb.hint)
	if err != nil {
		return err
	}
	tb.plan = plan
	if d.loads != nil {
		d.observeLoad(t, uniq, cnt)
	}
	// Hash-probe traffic: key+value per ID occurrence (the GPU probes
	// its Hit-Map once per lookup).
	tb.gpu = d.env.Cfg.System.GPU.RandomTime(float64(len(j.batch.Tables[t])) * 16)
	// Cross-node coordination latency this table's placement just paid
	// (zero when its shards are co-located). The critical share is what
	// this Plan actually waited for — the rest (its first poll round,
	// under overlap) was hidden under the previous cycle; the wall
	// figure is the message plane's queueing price of the same script.
	tb.coord = sp.LastPlanCoord()
	tb.coordCrit = sp.LastPlanCoordCritical()
	tb.coordWall = sp.LastPlanCoordWall()
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
	_ = par.Each(d.pool, len(job.tabs), job, (*spJob).collectTable) // collectTable cannot fail
	job.closeCopyStage(core.StageCollect)
	return nil
}

// collectTable is stageCollect's body for table t.
func (j *spJob) collectTable(t int) error {
	d, tb := j.d, &j.tabs[t]
	plan := tb.plan
	tb.cpu = d.cost.gatherCPU(len(plan.Fills)) +
		d.cost.stateMoveCPU(len(plan.Fills))
	tb.gpu = d.cost.gatherGPU(len(plan.Evictions)) +
		d.cost.stateMoveGPU(len(plan.Evictions))
	for p, pl := range d.planes {
		st, dim := &tb.staged[p], pl.gpu[t].Cols
		st.fills = resizeF32(st.fills, len(plan.Fills)*dim)
		for i, f := range plan.Fills {
			copy(st.fills[i*dim:(i+1)*dim], pl.cpu[t].Row(f.ID))
		}
		st.evicts = resizeF32(st.evicts, len(plan.Evictions)*dim)
		for i, e := range plan.Evictions {
			copy(st.evicts[i*dim:(i+1)*dim], pl.gpu[t].Row(int(e.Slot)))
		}
	}
	return nil
}

// closeCopyStage reduces the per-table cpu/gpu accumulators of a
// Collect or Insert pass in table order and books the stage: the CPU
// and GPU sides copy concurrently, so the slower one sets its time.
func (j *spJob) closeCopyStage(st core.Stage) {
	var cpuT, gpuT float64
	for t := range j.tabs {
		cpuT += j.tabs[t].cpu
		gpuT += j.tabs[t].gpu
	}
	j.stageTime[st] = maxf(cpuT, gpuT/float64(j.d.gpus))
	j.stageCPU[st] = cpuT
	j.cpuBusy += cpuT
	j.gpuBusy += gpuT
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
	for t := range job.tabs {
		plan := job.tabs[t].plan
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
	_ = par.Each(d.pool, len(job.tabs), job, (*spJob).insertTable) // insertTable cannot fail
	job.closeCopyStage(core.StageInsert)
	return nil
}

// insertTable is stageInsert's body for table t.
func (j *spJob) insertTable(t int) error {
	d, tb := j.d, &j.tabs[t]
	plan := tb.plan
	tb.gpu = d.cost.scatterWriteGPU(len(plan.Fills)) +
		d.cost.stateMoveGPU(len(plan.Fills))
	tb.cpu = d.cost.scatterWriteCPU(len(plan.Evictions)) +
		d.cost.stateMoveCPU(len(plan.Evictions))
	for p, pl := range d.planes {
		st, dim := &tb.staged[p], pl.gpu[t].Cols
		for i, f := range plan.Fills {
			copy(pl.gpu[t].Row(int(f.Slot)), st.fills[i*dim:(i+1)*dim])
		}
		for i, e := range plan.Evictions {
			copy(pl.cpu[t].Row(e.OldID), st.evicts[i*dim:(i+1)*dim])
		}
	}
	return nil
}

// cacheView adapts one plane's GPU slots for a table + a batch's plan into
// an embed.RowStore, so [Train] runs the canonical primitives unchanged
// but at "GPU memory speed".
type cacheView struct {
	storage *tensor.Matrix
	plan    *core.PlanResult
}

func (v cacheView) Dim() int { return v.storage.Cols }

func (v cacheView) Row(id int64) []float32 {
	return v.storage.Row(int(v.plan.Slot(id)))
}

// stageTrain runs the whole model-training step against the scratchpad:
// embedding forward, MLP forward/backward, gradient coalescing, and the
// embedding parameter update. All embedding traffic hits GPU memory — the
// cache "always hits" by construction.
func (d *dynamicState) stageTrain(job *spJob) error {
	cfg := d.env.Cfg.Model
	_ = par.Each(d.pool, len(job.tabs), job, (*spJob).trainTable) // trainTable cannot fail
	var embT float64
	for t := range job.tabs {
		embT += job.tabs[t].gpu
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

	if len(d.planes) > 0 {
		// views[p] views plane p through the job's plans; views[1] stays
		// nil for a stateless optimizer.
		var views [2][]embed.RowStore
		for p, pl := range d.planes {
			views[p] = make([]embed.RowStore, len(pl.gpu))
			for t, g := range pl.gpu {
				views[p][t] = cacheView{storage: g, plan: job.tabs[t].plan}
			}
		}
		job.loss = d.env.trainStep(job.batch, views[0], views[1])
	}
	return nil
}

// trainTable is the timing body of stageTrain for table t.
func (j *spJob) trainTable(t int) error {
	d, tb := j.d, &j.tabs[t]
	cfg := d.env.Cfg.Model
	uniq := len(tb.plan.UniqueIDs)
	ids := j.batch.TotalIDs()
	tb.gpu = d.cost.gatherGPU(ids) +
		d.cost.reduceGPU(ids, cfg.BatchSize) +
		d.cost.dupCoalesceGPU(cfg.BatchSize, ids, uniq) +
		d.cost.scatterUpdateGPU(uniq) +
		d.cost.stateUpdateGPU(uniq)
	return nil
}

// release drops the job's hold protection on every table; the engine calls
// it exactly when the job enters [Train] (see shard.Manager.Release).
func (d *dynamicState) release(job *spJob) error {
	return par.Each(d.pool, len(d.sps), job, (*spJob).releaseTable)
}

// releaseTable is release's body for table t.
func (j *spJob) releaseTable(t int) error {
	return j.d.sps[t].Release(j.batch.Seq)
}

// flush writes every resident row of every plane back to the CPU tables.
func (d *dynamicState) flush() error {
	if len(d.planes) == 0 {
		return nil
	}
	d.pool.ForEach(len(d.sps), func(t int) {
		d.sps[t].ForEach(func(id int64, slot int32) {
			for _, pl := range d.planes {
				copy(pl.cpu[t].Row(id), pl.gpu[t].Row(int(slot)))
			}
		})
	})
	return nil
}

// retire books a finished job into rep — its stage times, coordination
// (serial and queued), device busy times, and its loss, summed in AvgLoss
// until finish averages it — and recycles the job.
func (d *dynamicState) retire(rep *Report, job *spJob) {
	for st, t := range job.stageTime {
		rep.StageAvg[st] += t
	}
	rep.CoordTime += job.coord
	rep.CoordWallTime += job.coordWall
	rep.CPUBusy += job.cpuBusy
	rep.GPUBusy += job.gpuBusy
	rep.AvgLoss += float64(job.loss)
	d.recycleJob(job)
}

// finish closes a run whose batches have all retired: it folds in the
// managers' statistics and averages the per-iteration sums. Migration,
// fault and checkpoint stalls are episodic, so they extend Wall but stay
// out of the per-iteration averages. The Figure 5 buckets attribute the
// cache-management stages to the CPU (they touch CPU memory) and [Train]
// to the GPU.
func (d *dynamicState) finish(rep *Report) {
	d.aggregateCacheStats(rep)
	finalizeAverages(rep, rep.Iters, rep.AvgLoss)
	rep.Wall += rep.MigrationTime + rep.Downtime + rep.RecoveryTime + rep.CheckpointTime
	if rep.Wall > 0 {
		rep.Availability = 1 - (rep.Downtime+rep.RecoveryTime)/rep.Wall
	}
	rep.CPUEmbFwd = rep.StageAvg[core.StagePlan] + rep.StageAvg[core.StageCollect] + rep.StageAvg[core.StageExchange]
	rep.CPUEmbBwd = rep.StageAvg[core.StageInsert]
	rep.GPUTime = rep.StageAvg[core.StageTrain]
}

// aggregateCacheStats folds per-table scratchpad statistics — cache
// counters, cross-node coordination traffic, overlap, resharding and
// evacuation totals — into a report.
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
