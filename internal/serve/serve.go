// Package serve simulates online inference serving over the scratchpad:
// R replica workers, each holding the same per-table embedding cache
// machinery the training engines use (internal/shard over
// internal/core), fed single-sample queries by an open-loop arrival
// process through a pluggable router.
//
// Training and serving stress the scratchpad in opposite ways. Training
// plans with look-ahead — the dataset's future batches are known, so
// the cache prefetches exactly what it will need. A serving frontend
// has no future: queries arrive stochastically, the cache is reactive
// LRU, and the hit rate is made (or lost) by which replica each query
// lands on. That routing decision is this package's subject.
//
// Architecture orientation (DESIGN.md §11 is the long form):
//
//   - [ArrivalSpec] defines the open-loop query stream: a Poisson base
//     rate with optional diurnal or flash-crowd modulation
//     (ParseArrival speaks the -arrival flag grammar). Times renders a
//     deterministic arrival timestamp vector.
//   - [Policy] selects the router: random, roundrobin, leastloaded,
//     hitaware (score replicas by estimated cache overlap from the
//     router's own bounded view of what it has sent where, minus a
//     queue-depth penalty), or hitaware-telemetry (the same score from
//     replica-published hit rates).
//   - [Config] -> [NewFleet] -> [Fleet]: R workers, each with one
//     shard.Manager per table (Shards/Coord/Elastic configs carry over
//     from training), a bounded FIFO queue, and a home topology node.
//     Workers stripe across the topology's nodes; each worker's shards
//     stripe across its own host's nodes, so sharded replicas pay NUMA
//     coordination and cross-host routing pays network links.
//   - [Fleet.Simulate] (failure.go) plays an arrival vector through the
//     router and the per-worker queues on one event-driven loop: each
//     admitted query Plans against the worker's scratchpads (hits,
//     misses, fills), is priced by the hw Table I arithmetic
//     (ServiceTime), and retires; queries arriving to a full queue
//     drop. Replica faults, client retries/hedging/deadlines, admission
//     control (resilience.go) and request batching (batch.go) are
//     events on the same loop, not a second simulator. [Report] digests
//     throughput, aggregate and per-worker hit rates, latency
//     percentiles, and drops.
//
// Everything is deterministic in Config.Seed: same config, same report.
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Options is the CLI-facing serving knob set (the -serve flag family),
// threaded through engine.EnvConfig and bench.Config. The zero value
// means "serving off" — Active() is false and nothing downstream runs.
type Options struct {
	// Replicas is the worker count R (>= 1 activates serving).
	Replicas int
	// Router selects the routing policy ("" = hitaware).
	Router Policy
	// Arrival is the open-loop arrival process (zero = poisson at
	// DefaultArrivalRate).
	Arrival ArrivalSpec
	// Requests is the number of queries to play (0 = DefaultRequests).
	Requests int
	// QueueCap bounds each worker's queue, in-service request included
	// (0 = DefaultQueueCap); arrivals beyond it drop.
	QueueCap int
	// CacheFrac sizes each worker's per-table scratchpad as a fraction
	// of the table (0 = the paper's 2%).
	CacheFrac float64
	// Faults schedules replica failures (-serve-fail): replica<R>@<T>[-<T2>]
	// events in virtual-clock seconds plus host<H>@<S> kills that take
	// down every replica homed on the host. A dead replica's queue is
	// flushed, its scratchpad state is lost, and recovery is priced as
	// cold-cache re-warm. The zero plan never perturbs a run.
	Faults hw.FaultPlan
	// Deadline is the per-query client deadline in seconds (0 = none).
	// Responses arriving after it do not count toward goodput, and no
	// retry is issued past it; queries that never complete are TimedOut.
	Deadline float64
	// Retry bounds client-side retries (with exponential backoff to a
	// different replica) after a failed attempt. Zero = no retries.
	Retry RetrySpec
	// Hedge, when positive, duplicates a still-unanswered query to the
	// next-best replica after this many seconds: first response wins,
	// the loser's work is still billed. Zero = no hedging.
	Hedge float64
	// Admission sheds or degrades load before the queues overflow.
	Admission AdmissionSpec
	// Batch enables replica-side request batching (-serve-batch): each
	// worker services up to Batch.Cap queued queries as one
	// deduplicated batch (batch.go). The zero spec (or Cap <= 1)
	// services every query alone.
	Batch BatchSpec
}

// Serving defaults.
const (
	DefaultArrivalRate = 2000.0
	DefaultRequests    = 4096
	DefaultQueueCap    = 32
)

// Active reports whether serving mode is on.
func (o Options) Active() bool { return o.Replicas > 0 }

// Resilient reports whether any failure-model or client-resilience knob
// is engaged. A pure predicate: the simulator does not branch on it (a
// run with none engaged simply schedules no events); callers use it to
// decide whether the resilience section of a report is worth printing.
func (o Options) Resilient() bool {
	return o.Faults.Active() || o.Deadline > 0 || o.Retry.Active() ||
		o.Hedge > 0 || o.Admission.Active()
}

// WithDefaults returns the options with every unset knob filled in
// (router, arrival process, request count, queue cap, cache fraction) —
// the exact option set NewFleet resolves, exposed so harnesses can
// record the effective configuration.
func (o Options) WithDefaults() Options {
	if o.Router == "" {
		o.Router = PolicyHitAware
	}
	if !o.Arrival.Active() {
		o.Arrival = ArrivalSpec{Shape: ShapePoisson, Rate: DefaultArrivalRate}
	}
	o.Arrival = o.Arrival.withDefaults()
	if o.Requests == 0 {
		o.Requests = DefaultRequests
	}
	if o.QueueCap == 0 {
		o.QueueCap = DefaultQueueCap
	}
	if o.CacheFrac == 0 {
		o.CacheFrac = 0.02
	}
	o.Retry = o.Retry.withDefaults()
	o.Admission = o.Admission.withDefaults()
	return o
}

// Validate reports a descriptive error for an unusable option set
// (inactive options are always valid).
func (o Options) Validate() error {
	if !o.Active() {
		return nil
	}
	if o.Replicas < 1 {
		return fmt.Errorf("serve: Replicas %d < 1", o.Replicas)
	}
	if _, err := ParsePolicy(string(o.Router)); err != nil {
		return err
	}
	if o.Arrival.Active() {
		if err := o.Arrival.Validate(); err != nil {
			return err
		}
	}
	if o.Requests < 0 {
		return fmt.Errorf("serve: Requests %d < 0", o.Requests)
	}
	if o.QueueCap < 0 {
		return fmt.Errorf("serve: QueueCap %d < 0", o.QueueCap)
	}
	if o.CacheFrac < 0 || o.CacheFrac > 1 {
		return fmt.Errorf("serve: CacheFrac %g out of [0,1]", o.CacheFrac)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("serve: Deadline %g < 0", o.Deadline)
	}
	if o.Hedge < 0 {
		return fmt.Errorf("serve: Hedge %g < 0", o.Hedge)
	}
	if err := o.Retry.Validate(); err != nil {
		return err
	}
	if err := o.Admission.Validate(); err != nil {
		return err
	}
	if err := o.Batch.Validate(); err != nil {
		return err
	}
	// Fault-plan events are checked against the replica count and
	// topology by Config.Validate (ValidateServe), once both are known.
	return nil
}

// Config assembles one serving simulation: the options, the workload
// shape (tables, rows, lookups, per-table trace distributions), the
// platform, and the per-worker scratchpad configuration.
type Config struct {
	Options
	// NumTables/RowsPerTable/Lookups/EmbeddingDim describe the model's
	// sparse side; each query gathers Lookups IDs per table.
	NumTables    int
	RowsPerTable int64
	Lookups      int
	EmbeddingDim int
	// Dists holds the per-table query-ID distributions (NumTables
	// entries; the same locality classes training traces use).
	Dists []trace.Distribution
	// Seed drives every PRNG (arrivals, query IDs, policies, router).
	Seed int64
	// System prices the per-query work (hw Table I arithmetic).
	System hw.System
	// Topology places workers (and their shards) on a platform graph;
	// the frontend lives on node 0 and queries routed off it are
	// charged the crossed link. nil or single-node co-locates all.
	Topology *hw.Topology
	// Shards partitions each worker's per-table scratchpad control
	// plane (internal/shard); a worker's shards stripe across its own
	// host's nodes, so S > 1 on a multi-socket host prices NUMA
	// coordination into each query's Plan.
	Shards int
	// Coord/CoordQuantum select the cross-shard coordination protocol.
	Coord        shard.CoordMode
	CoordQuantum int
	// Elastic builds the managers in their elastic representation (the
	// generic re-shardable form used by training's live resharding).
	Elastic bool
	// DenseTime is the per-query dense-model forward latency in
	// seconds (the MLP inference pass; engine.RunServe derives it from
	// the model configuration).
	DenseTime float64
	// DenseBatch prices the dense forward at batch size n > 1 (the
	// batched path's roofline: weight-read bytes and kernel launch
	// amortize across members, FLOPs and activations scale linearly).
	// nil falls back to n*DenseTime — no amortization, so batching
	// still wins only on the sparse side.
	DenseBatch func(n int) float64
	// Pool bounds the shard managers' fan-out parallelism (nil =
	// serial).
	Pool *par.Pool
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	if err := c.Options.Validate(); err != nil {
		return err
	}
	if c.NumTables <= 0 {
		return fmt.Errorf("serve: NumTables %d <= 0", c.NumTables)
	}
	if c.RowsPerTable <= 0 {
		return fmt.Errorf("serve: RowsPerTable %d <= 0", c.RowsPerTable)
	}
	if c.Lookups <= 0 {
		return fmt.Errorf("serve: Lookups %d <= 0", c.Lookups)
	}
	if c.EmbeddingDim <= 0 {
		return fmt.Errorf("serve: EmbeddingDim %d <= 0", c.EmbeddingDim)
	}
	if len(c.Dists) != c.NumTables {
		return fmt.Errorf("serve: %d distributions for %d tables", len(c.Dists), c.NumTables)
	}
	if c.Shards < 0 {
		return fmt.Errorf("serve: Shards %d < 0", c.Shards)
	}
	if c.DenseTime < 0 {
		return fmt.Errorf("serve: DenseTime %g < 0", c.DenseTime)
	}
	if c.Faults.Active() {
		if err := c.Faults.ValidateServe(c.Replicas, c.Topology); err != nil {
			return err
		}
	}
	return nil
}

// worker is one serving replica: per-table scratchpad managers, a home
// topology node, and the completion-time deque that models its bounded
// FIFO queue (the worker is a single server; comp[head:] are the
// requests still queued or in service).
type worker struct {
	id   int
	node int
	host int
	mgrs []*shard.Manager
	seq  int

	comp      []float64
	head      int
	busyUntil float64

	served, drops int64
	peakDepth     int

	// Batching state (empty unless Batch.Enabled).
	// pending holds queries routed here but not yet launched in a
	// batch; batchPlanned is the earliest scheduled batch-launch event
	// (+Inf when none is outstanding); the counters feed the report.
	pending        []pendingReq
	batchPlanned   float64
	batches        int64
	batchedQueries int64
	maxBatch       int

	// Telemetry state (PolicyTelemetry only; nil otherwise): the
	// decayed per-table hit rates this replica publishes, and the
	// virtual time of its last publication.
	telem   []float64
	lastPub float64

	// Failure-model state (all zero without faults or degrade mode).
	// downs is the merged, ascending schedule of this replica's down
	// intervals; cpuBusyUntil models the host CPU as a second server
	// for degraded-mode queries; doomed holds the in-flight attempts
	// the next kill will flush; the acc* fields bank the statistics of
	// scratchpad generations discarded by kills.
	downs        []downSpan
	down         bool
	cpuBusyUntil float64
	doomed       []*query
	degraded     int64
	rewarm       bool
	rewarmTarget int
	rewarmFills  int64
	rewarmTime   float64
	accHits      int64
	accMisses    int64
	accRounds    int64
	accWall      float64
}

// pendingReq is one query waiting in a worker's batch: the query, its
// enqueue time (arrival plus the frontend link hop), and the response
// hop it will pay on delivery.
type pendingReq struct {
	q        *query
	enq      float64
	linkDown float64
}

// downSpan is one scheduled outage of a replica: [from, to) in
// virtual-clock seconds, to = +Inf when it never recovers.
type downSpan struct {
	from, to float64
}

// nextKill returns the start of the first outage strictly after t
// (+Inf when none remains). An attempt whose completion lands at or
// before it survives; anything later dies with the queue flush.
func (w *worker) nextKill(t float64) float64 {
	for _, s := range w.downs {
		if s.from > t {
			return s.from
		}
	}
	return math.Inf(1)
}

// residentRows sums the rows currently resident across the worker's
// per-table scratchpads (the re-warm progress measure).
func (w *worker) residentRows() int {
	n := 0
	for _, mgr := range w.mgrs {
		n += mgr.Len()
	}
	return n
}

// depth returns the queue depth (in-service request included) at time
// t. Queries waiting in an unlaunched batch count too.
func (w *worker) depth(t float64) int {
	for w.head < len(w.comp) && w.comp[w.head] <= t {
		w.head++
	}
	if w.head > len(w.comp)/2 && w.head > 1024 {
		w.comp = append(w.comp[:0], w.comp[w.head:]...)
		w.head = 0
	}
	return len(w.comp) - w.head + len(w.pending)
}

// Fleet is a built serving deployment, ready to Simulate.
type Fleet struct {
	cfg     Config
	workers []*worker
	router  *router
	reqRng  *rand.Rand
	slots   int
	shards  int
	// used latches on the first Simulate: the fleet's state is that run's.
	used bool
}

// NewFleet builds the R workers (scratchpad managers, placements), the
// router, and the compiled per-replica outage schedule for cfg.
func NewFleet(cfg Config) (*Fleet, error) {
	cfg.Options = cfg.Options.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := int(cfg.CacheFrac * float64(cfg.RowsPerTable))
	if slots < 1 {
		slots = 1
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	nodes := 1
	if cfg.Topology != nil {
		if err := cfg.Topology.Validate(); err != nil {
			return nil, err
		}
		nodes = cfg.Topology.NumNodes()
	}
	f := &Fleet{cfg: cfg, slots: slots, shards: shards,
		reqRng: rand.New(rand.NewSource(cfg.Seed + 8000))}
	for w := 0; w < cfg.Replicas; w++ {
		wk := &worker{id: w, node: w % nodes, batchPlanned: math.Inf(1)}
		if cfg.Topology != nil {
			wk.host = cfg.Topology.Nodes[wk.node].Host
		}
		if Policy(cfg.Router) == PolicyTelemetry {
			wk.telem = make([]float64, cfg.NumTables)
			wk.lastPub = math.Inf(-1)
		}
		if err := f.buildScratchpads(wk); err != nil {
			return nil, err
		}
		f.workers = append(f.workers, wk)
	}
	f.compileOutages()
	needViews := cfg.Admission.Policy == AdmitCheapest
	f.router = newRouter(Policy(cfg.Router), cfg.Replicas, slots*cfg.NumTables, cfg.Seed+8500, needViews)
	return f, nil
}

// buildScratchpads (re)builds wk's per-table shard managers cold. Used
// at fleet construction and at replica recovery: a recovered replica
// starts from an empty scratchpad and re-warms through ordinary misses
// (the priced re-warm of DESIGN.md §13). The manager seeds are
// deterministic in (worker, table), so a rebuilt replica replays the
// same policy decisions a fresh one would.
func (f *Fleet) buildScratchpads(wk *worker) error {
	cfg := f.cfg
	place, err := workerPlacement(cfg.Topology, wk.node, f.shards)
	if err != nil {
		return err
	}
	// A batched worker plans up to Cap queries' IDs in one Plan, so the
	// worst-case reserve is sized for the batch, not the single query.
	maxPlanIDs := cfg.Lookups
	if cfg.Batch.Enabled() {
		maxPlanIDs *= cfg.Batch.Cap
	}
	wk.mgrs = wk.mgrs[:0]
	for t := 0; t < cfg.NumTables; t++ {
		spCfg := core.Config{
			Slots:      f.slots,
			Policy:     cache.LRU,
			PolicySeed: cfg.Seed + int64(7000+wk.id*cfg.NumTables+t),
			PastWindow: 1,
		}
		spCfg.Reserve = core.WorstCaseReserve(spCfg, maxPlanIDs)
		mgr, err := shard.New(shard.Config{
			Scratchpad:   spCfg,
			Shards:       f.shards,
			Pool:         cfg.Pool,
			Placement:    place,
			Coord:        cfg.Coord,
			CoordQuantum: cfg.CoordQuantum,
			Elastic:      cfg.Elastic,
		})
		if err != nil {
			return err
		}
		wk.mgrs = append(wk.mgrs, mgr)
	}
	wk.seq = 0
	// A rebuilt scratchpad is cold: the replica's decayed hit-rate
	// estimate restarts from zero and republishes on its first plan.
	if wk.telem != nil {
		for i := range wk.telem {
			wk.telem[i] = 0
		}
		wk.lastPub = math.Inf(-1)
	}
	return nil
}

// compileOutages turns the validated fault plan into each worker's
// merged down-interval schedule: replica events strike one worker, host
// kills (times are whole virtual-clock seconds) strike every worker
// homed on the host, overlaps merge.
func (f *Fleet) compileOutages() {
	if !f.cfg.Faults.Active() {
		return
	}
	for _, e := range f.cfg.Faults.Events {
		switch e.Kind {
		case hw.FaultReplicaDown:
			to := math.Inf(1)
			if e.Until > 0 {
				to = e.Until
			}
			wk := f.workers[e.Replica]
			wk.downs = append(wk.downs, downSpan{from: e.At, to: to})
		case hw.FaultHostDown:
			for _, wk := range f.workers {
				if wk.host == e.Host {
					wk.downs = append(wk.downs, downSpan{from: float64(e.Iter), to: math.Inf(1)})
				}
			}
		}
	}
	for _, wk := range f.workers {
		if len(wk.downs) < 2 {
			continue
		}
		sort.Slice(wk.downs, func(i, j int) bool { return wk.downs[i].from < wk.downs[j].from })
		merged := wk.downs[:1]
		for _, s := range wk.downs[1:] {
			last := &merged[len(merged)-1]
			if s.from <= last.to {
				if s.to > last.to {
					last.to = s.to
				}
				continue
			}
			merged = append(merged, s)
		}
		wk.downs = merged
	}
}

// workerPlacement stripes a worker's shards across the nodes of its own
// host: replicas live on one host each, so cross-shard coordination
// stays within the host's NUMA links while cross-host cost is paid by
// routing, not planning. Single-node topologies and unsharded workers
// get the zero (co-located) placement.
func workerPlacement(topo *hw.Topology, home, shards int) (hw.Placement, error) {
	if topo == nil || topo.NumNodes() <= 1 || shards <= 1 {
		return hw.Placement{}, nil
	}
	host := topo.Nodes[home].Host
	var hostNodes []int
	for i, n := range topo.Nodes {
		if n.Host == host {
			hostNodes = append(hostNodes, i)
		}
	}
	node := make([]int, shards)
	for j := range node {
		node[j] = hostNodes[j%len(hostNodes)]
	}
	p := hw.Placement{Topo: topo, Node: node, Policy: hw.PlaceStripe}
	if err := p.Validate(shards); err != nil {
		return hw.Placement{}, err
	}
	return p, nil
}

// idBytes is the wire payload of n sparse IDs (int64).
func idBytes(n int) float64 { return float64(n) * 8 }

// respBytes is the wire payload of one query's answer (a float32 score
// plus framing).
const respBytes = 8

// ServiceTime prices one query on a worker with the hw Table I
// arithmetic: the GPU probes its Hit-Map once per ID occurrence, the
// fills (missed rows) take the CPU-gather -> PCIe -> scratchpad-fill
// detour, the now-resident rows are gathered and pooled on the GPU, and
// the dense MLP forward runs. Victim rows are clean in inference (no
// gradient ever dirties them), so evictions are metadata-only and free.
// coord is the query's cross-shard Plan coordination latency.
func (f *Fleet) ServiceTime(fills, totalIDs int, coord float64) float64 {
	sys := f.cfg.System
	dim := f.cfg.EmbeddingDim
	// Sparse IDs cross PCIe; the GPU probes key+value per occurrence.
	t := sys.PCIe.TransferTime(idBytes(totalIDs)) +
		sys.GPU.RandomTime(float64(totalIDs)*16)
	if fills > 0 {
		t += f.fillDetour(fills)
	}
	t += sys.GPU.GatherTime(totalIDs, dim) +
		sys.GPU.ReduceTime(totalIDs, f.cfg.NumTables, dim)
	return t + f.cfg.DenseTime + coord
}

// fillDetour prices the CPU-gather -> PCIe -> scratchpad-fill detour
// for fills missed rows — the per-miss cost that also prices a
// recovered replica's cold-cache re-warm (Report.RewarmTime).
func (f *Fleet) fillDetour(fills int) float64 {
	if fills <= 0 {
		return 0
	}
	sys := f.cfg.System
	dim := f.cfg.EmbeddingDim
	return sys.CPU.GatherTime(fills, dim) +
		sys.PCIe.TransferTime(hw.EmbeddingBytes(fills, dim)) +
		sys.GPU.ScatterWriteTime(fills, dim)
}

// DegradedServiceTime prices one query on the CPU fallback path an
// overloaded or recovering replica uses under AdmissionSpec.Degrade:
// the host CPU gathers every row straight from the full embedding
// tables in DRAM (no Hit-Map probe, no scratchpad fill) and pools
// there, only the pooled vectors cross PCIe, and the dense forward
// still runs on the GPU. The CPU's random-access gather over all
// totalIDs rows is the priced latency penalty relative to the warm
// scratchpad path.
func (f *Fleet) DegradedServiceTime(totalIDs int) float64 {
	sys := f.cfg.System
	dim := f.cfg.EmbeddingDim
	t := sys.CPU.GatherTime(totalIDs, dim) +
		sys.CPU.ReduceTime(totalIDs, f.cfg.NumTables, dim) +
		sys.PCIe.TransferTime(hw.EmbeddingBytes(f.cfg.NumTables, dim))
	return t + f.cfg.DenseTime
}

// Run builds a fleet for cfg, generates the configured arrival vector,
// and simulates it.
func Run(cfg Config) (*Report, error) {
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	times := f.cfg.Arrival.Times(f.cfg.Requests, f.cfg.Seed+8200)
	return f.Simulate(times)
}

// newQuery allocates a query with request buffers sized for the model.
func (f *Fleet) newQuery() *query {
	n := f.cfg.NumTables * f.cfg.Lookups
	flat := make([]int64, n)
	q := &query{ids: make([][]int64, f.cfg.NumTables), keys: make([]int64, 0, n)}
	for t := range q.ids {
		lo, hi := t*f.cfg.Lookups, (t+1)*f.cfg.Lookups
		q.ids[t] = flat[lo:hi:hi]
	}
	return q
}

// nextRequest draws the next query of the request stream into q's
// buffers: its per-table ID lists and the router's composite key list.
func (f *Fleet) nextRequest(q *query) {
	q.keys = q.keys[:0]
	nt := int64(f.cfg.NumTables)
	for t, ids := range q.ids {
		dist := f.cfg.Dists[t]
		for l := range ids {
			id := dist.Sample(f.reqRng)
			ids[l] = id
			q.keys = append(q.keys, id*nt+int64(t))
		}
	}
}

// plan runs one query's (or one batch's — ids[t] carries every member's
// IDs for table t) Plan/Release/Recycle cycle on every table of the
// worker and returns the fill and eviction counts plus the modeled
// cross-shard coordination latency. When the telemetry policy is on,
// each plan also folds its per-table hit rate into the worker's decayed
// estimate.
func (w *worker) plan(ids [][]int64) (fills, evicts int, coord float64, err error) {
	for t, mgr := range w.mgrs {
		var prevHits, prevMisses int64
		if w.telem != nil {
			st := mgr.Stats()
			prevHits, prevMisses = st.Hits, st.Misses
		}
		res, perr := mgr.Plan(w.seq, ids[t], nil)
		if perr != nil {
			return 0, 0, 0, perr
		}
		fills += len(res.Fills)
		evicts += len(res.Evictions)
		coord += mgr.LastPlanCoord()
		if rerr := mgr.Release(w.seq); rerr != nil {
			return 0, 0, 0, rerr
		}
		mgr.Recycle(res)
		if w.telem != nil {
			st := mgr.Stats()
			if n := (st.Hits - prevHits) + (st.Misses - prevMisses); n > 0 {
				sample := float64(st.Hits-prevHits) / float64(n)
				w.telem[t] = (1-TelemetryDecay)*w.telem[t] + TelemetryDecay*sample
			}
		}
	}
	w.seq++
	return fills, evicts, coord, nil
}

// maybePublish pushes the worker's decayed hit rates to the router as a
// fresh telemetry snapshot, rate-limited to one publication per
// TelemetryInterval of virtual time (no-op outside PolicyTelemetry).
func (f *Fleet) maybePublish(wk *worker, now float64) {
	if wk.telem == nil {
		return
	}
	if now >= wk.lastPub+TelemetryInterval {
		f.router.publish(wk.id, wk.telem, now)
		wk.lastPub = now
	}
}

// Report digests one serving simulation. The zero value is valid (all
// counters zero) — engine reports embed it by value so non-serving runs
// never carry a nil.
type Report struct {
	// Router/Replicas/Batch echo the deployment shape.
	Router   Policy
	Replicas int
	Batch    BatchSpec
	// Offered counts generated queries; Served the ones that completed
	// and delivered a response (degraded CPU-path completions
	// included); Drops the arrivals bounced off full queues. Together
	// with Shed and TimedOut these satisfy the conservation invariant
	// Offered = Served + Shed + Drops + TimedOut, exactly — every
	// generated query is accounted to exactly one outcome
	// (checkConservation enforces it on every report).
	Offered, Served, Drops int64
	// Shed counts queries the admission controller rejected (distinct
	// from queue-cap Drops); TimedOut the queries that never delivered
	// a response (all attempts lost to failures, or nothing completed
	// within the client deadline). Retried and Hedged count the extra
	// attempts the client issued; Degraded the Served subset answered
	// by the CPU fallback path.
	Shed, TimedOut  int64
	Retried, Hedged int64
	Degraded        int64
	// Duration is the simulated span from the first arrival to the
	// last completion; Throughput is Served/Duration, Goodput the
	// within-deadline fraction of it (equal when no deadline is set),
	// and OfferedRate the arrival process's realized rate.
	Duration    float64
	Throughput  float64
	Goodput     float64
	OfferedRate float64
	// Availability is 1 minus the fleet's replica-downtime fraction
	// (summed downtime over Replicas x Duration); exactly 1 for
	// fault-free runs.
	Availability float64
	// RewarmFills/RewarmTime count and price the cold-cache re-warm of
	// recovered replicas: the fills (and their CPU->PCIe->scratchpad
	// detour seconds) a recovered replica pays until its scratchpad is
	// back to its pre-kill residency.
	RewarmFills int64
	RewarmTime  float64
	// Hits/Misses are occurrence-level scratchpad statistics summed
	// over all workers and tables; Fills/Evictions count row movements.
	Hits, Misses     int64
	Fills, Evictions int64
	// Batches counts the batch launches across the fleet (zero unless
	// Batch.Enabled); BatchedQueries the queries they carried (their
	// sum of batch sizes), so BatchedQueries/Batches is the realized
	// occupancy; MaxBatch the largest batch launched.
	Batches        int64
	BatchedQueries int64
	MaxBatch       int
	// Latency digests end-to-end latency (queueing + service + routing
	// links) over GPU-path served queries only — shed, dropped, and
	// timed-out queries never deliver a response and are invisible here
	// (see DropRate for the complementary loss signal), and degraded
	// CPU-path completions report in DegradedLatency instead, so a slow
	// fallback cannot smear the primary path's percentiles. P50/P95/P99
	// are the serving tail metrics.
	Latency metrics.Summary
	// DegradedLatency digests the Degraded (CPU fallback) completions'
	// end-to-end latency in its own percentile block (zero Summary when
	// nothing degraded).
	DegradedLatency metrics.Summary
	// CoordTime totals the cross-shard Plan coordination latency paid
	// inside service times (zero for unsharded or co-located workers).
	CoordTime float64
	// CoordRounds totals the cross-shard coordination message rounds
	// across all workers' managers, and CoordWallTime the message
	// plane's measured makespan for them — the serving twin of the
	// training report's coordination fields, so serving benchmark
	// entries no longer omit the coordination columns.
	CoordRounds   int64
	CoordWallTime float64
	// CrossNode/CrossHost count queries routed off the frontend node /
	// host; LinkTime totals the routing-link latency they paid.
	CrossNode, CrossHost int64
	LinkTime             float64
	// Workers carries the per-replica breakdown.
	Workers []WorkerReport
}

// WorkerReport is one replica's share of the run.
type WorkerReport struct {
	// Node/Host locate the replica on the topology.
	Node, Host int
	// Served/Drops count this replica's admitted and bounced queries.
	Served, Drops int64
	// Hits/Misses are the replica's occurrence-level cache statistics.
	Hits, Misses int64
	// PeakDepth is the replica's queue high-water mark.
	PeakDepth int
	// Downtime is this replica's scheduled outage overlap with the run,
	// in seconds (zero without a fault plan).
	Downtime float64
	// Degraded counts the queries this replica answered on the CPU
	// fallback path (a subset of Served).
	Degraded int64
	// Batches counts this replica's batch launches (zero unless
	// batching is on).
	Batches int64
}

// HitRate returns the fleet's occurrence-level cache hit rate.
func (r Report) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// HitRate returns the replica's occurrence-level cache hit rate.
func (w WorkerReport) HitRate() float64 {
	total := w.Hits + w.Misses
	if total == 0 {
		return 0
	}
	return float64(w.Hits) / float64(total)
}

// DropRate returns the fraction of generated queries that never
// delivered a response (queue-cap drops, admission sheds, and
// timeouts over Offered) — the loss signal the served-only latency
// percentiles cannot show.
func (r Report) DropRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Drops+r.Shed+r.TimedOut) / float64(r.Offered)
}

// DropRate returns the fraction of queries routed to this replica that
// bounced off its full queue (Drops over Served+Drops). Latency
// percentiles digest served queries only, so a replica can post a
// pristine p99 while bouncing half its arrivals — this is the
// complementary per-replica signal.
func (w WorkerReport) DropRate() float64 {
	total := w.Served + w.Drops
	if total == 0 {
		return 0
	}
	return float64(w.Drops) / float64(total)
}

// checkConservation enforces the query-conservation invariant: every
// offered query lands in exactly one of Served, Shed, Drops, TimedOut.
// A violation is a simulator bug, surfaced as an error rather than a
// silently wrong report.
func (r *Report) checkConservation() error {
	if got := r.Served + r.Shed + r.Drops + r.TimedOut; got != r.Offered {
		return fmt.Errorf("serve: conservation violated: served %d + shed %d + drops %d + timed-out %d = %d != offered %d",
			r.Served, r.Shed, r.Drops, r.TimedOut, got, r.Offered)
	}
	return nil
}
