// Package shard partitions one embedding table's scratchpad manager
// across S socket shards, the ROADMAP's multi-socket follow-on to the
// single-host parallel Plan path: the same scaling wall "Understanding
// Training Efficiency of DLRM at Scale" identifies once look-ahead
// planning saturates one socket's memory bandwidth.
//
// Each shard owns a hash partition of the sparse-ID space with its own
// Hit-Map (intmap), its own primary free list, its own in-flight hold
// ring, and its own recency list, so the per-occurrence work of the
// [Plan] stage — Hit-Map probes, recency touches, pin/hint stamping,
// hold registration — runs shard-parallel with no shared mutable state
// (every slot is written only by the shard whose ID currently occupies
// it). What cannot be sharded without changing results is the eviction
// decision: the paper's replacement policy is a *global* LRU over the
// whole scratchpad, and splitting it into independent per-shard LRUs
// would change which rows stay resident. The Manager therefore runs a
// cross-shard eviction-budget coordinator: a global monotonic touch-stamp
// clock orders every shard's recency list on one timeline, primary and
// reserve capacity are global budgets (shards borrow free slots from each
// other before anyone evicts), and victim selection k-way-merges the
// shard cursors by stamp — which reproduces the unsharded planner's
// eviction sequence exactly. Sharding is thus a pure decomposition:
// plans, eviction victims, and aggregate statistics are identical to
// core.Scratchpad at every shard count (the equivalence tests in this
// package prove it plan by plan).
//
// With Shards == 1 the Manager delegates wholesale to a single
// core.Scratchpad, making the S=1 configuration bit-identical to the
// unsharded tree by construction (including its zero-allocation Plan
// path). Shards > 1 requires the LRU policy: the stamp-merge coordinator
// is the distributed form of the LRU eviction order specifically.
//
// A Config.Placement assigns shards to the nodes of an hw.Topology
// (sockets, hosts, GPUs); the coordinator's victim-merge, touch-stamp,
// and free-slot-borrow messages are then metered in bytes and charged to
// the links the assignment crosses (coord.go), pricing the communication
// wall a scale-out deployment pays. Placement changes only the modeled
// coordination latency — never plans, victims, or statistics. How the
// coordinator talks over those links is selected by Config.Coord
// (hierarchy.go): exact per-eviction rounds, batched candidate polls,
// a per-host aggregation tier, or approximate epoch-quantized LRU whose
// divergence from exact is measured by a shadow planner.
//
// Nothing above requires the partitioning to be static: an elastic
// manager (Config.Elastic) can change its shard count between Plans via
// [Manager.Reshard] — growing or shrinking a live run, migrating every
// Hit-Map entry, free list, hold ring, and recency list to the new hash
// partitioning without losing a cached row, and pricing the migrated
// control bytes on the same topology links (reshard.go; DESIGN.md §9).
package shard

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/intmap"
	"repro/internal/par"
)

// fibMult is the 64-bit Fibonacci hashing multiplier used to spread
// sparse IDs across shards (same mixing constant as intmap).
const fibMult = 0x9E3779B97F4A7C15

// Config configures one sharded per-table manager.
type Config struct {
	// Scratchpad is the underlying cache configuration; capacity
	// (Slots + Reserve) is a global budget shared by all shards.
	Scratchpad core.Config
	// Shards is the number of socket shards the ID space is
	// hash-partitioned into. 0 selects 1 (unsharded); values above 1
	// require the LRU policy (the cross-shard eviction coordinator
	// merges shard recency orders, which is LRU-specific).
	Shards int
	// Pool bounds the shard fan-out parallelism; nil runs shards
	// serially. Results are bit-identical either way.
	Pool *par.Pool
	// Placement assigns each shard to a topology node; the cross-shard
	// coordinator's victim-merge, touch-stamp, and free-slot-borrow
	// messages are then metered in bytes and charged to the links the
	// assignment crosses (see coord.go). The zero value co-locates all
	// shards: zero coordination cost, the pre-topology behaviour.
	// Placement never changes plans, victims, or statistics — only the
	// modeled coordination latency reported by LastPlanCoord.
	Placement hw.Placement
	// Coord selects the coordination protocol (see hierarchy.go):
	// exact (default, per-eviction rounds), batched (one candidate
	// batch per shard per sweep, Plan-end aggregated confirms), hier
	// (batched plus a per-host aggregation tier), or approx (hier minus
	// stamp sync, with epoch-quantized recency and a measured
	// divergence). Exact, batched, and hier produce identical plans,
	// victims, and statistics; approx may diverge and reports how much.
	Coord CoordMode
	// CoordQuantum is approx mode's recency quantum in global clock
	// ticks (touches per epoch); 0 selects DefaultApproxQuantum. A
	// quantum of 1 makes approx bit-identical to exact (and its
	// divergence metrics provably zero). Ignored outside approx mode.
	CoordQuantum int
	// Elastic builds a manager whose shard count can change at run time
	// via [Manager.Reshard] (see reshard.go). It requires the LRU policy
	// (resharding re-threads LRU recency state) and makes Shards == 1
	// run the generic sharded machinery instead of delegating to a
	// single core.Scratchpad — plans, victims, and statistics stay
	// identical (TestElasticSingleShardBitIdentical proves slot-level
	// identity), but the S=1 fast path's zero-allocation guarantee is
	// traded for the ability to migrate.
	Elastic bool
	// LoadProbe additionally maintains the fixed-granularity query-mass
	// histogram behind [Manager.LoadProbe] that load-triggered reshard
	// policies read. It costs one extra hash + write per unique ID per
	// Plan, so it is opt-in: schedules without a load policy (static
	// steps only) leave the Plan hot path untouched. Requires Elastic.
	LoadProbe bool
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("shard: Shards %d < 0", c.Shards)
	}
	if c.Shards > 1 && c.Scratchpad.Policy != cache.LRU {
		return fmt.Errorf("shard: %d shards requires the %q policy (cross-shard eviction coordination merges LRU recency orders), got %q",
			c.Shards, cache.LRU, c.Scratchpad.Policy)
	}
	if c.Elastic && c.Scratchpad.Policy != cache.LRU {
		return fmt.Errorf("shard: elastic resharding requires the %q policy (migration re-threads LRU recency state), got %q",
			cache.LRU, c.Scratchpad.Policy)
	}
	if c.LoadProbe && !c.Elastic {
		return fmt.Errorf("shard: LoadProbe without Elastic (the probe only feeds reshard policies)")
	}
	if _, err := ParseCoordMode(string(c.Coord)); err != nil {
		return err
	}
	if c.CoordQuantum < 0 {
		return fmt.Errorf("shard: CoordQuantum %d < 0", c.CoordQuantum)
	}
	n := c.Shards
	if n == 0 {
		n = 1
	}
	if err := c.Placement.Validate(n); err != nil {
		return err
	}
	return c.Scratchpad.Validate()
}

// slotMeta is one slot's control metadata. Unlike core.Scratchpad's, it
// carries the global touch stamp that orders all shards' recency lists
// on one timeline (the coordinator's merge key).
type slotMeta struct {
	// key is the cached sparse ID (-1 when the slot is empty).
	key int64
	// pinStamp is the epoch of the slot's latest look-ahead pin.
	pinStamp int64
	// stamp is the global recency stamp of the slot's last touch.
	stamp uint64
	// holds counts in-flight batches referencing the slot.
	holds int32
	// entryIdx is the key's entry position inside the owning shard's
	// hitMap (shards never share a slot, so one field suffices).
	entryIdx int32
}

// shardState is one socket shard's private state.
type shardState struct {
	// hitMap maps this shard's resident sparse IDs to global slots.
	hitMap *intmap.Map
	// freePrimary holds this shard's share of the never-yet-used
	// primary slots (striped at construction; replenished only by
	// borrowing — eviction reuses the victim's slot directly, exactly
	// like the unsharded planner).
	freePrimary []int32
	// inFlight is this shard's FIFO of per-batch hold sets; every Plan
	// pushes one entry (possibly empty) so Release stays FIFO-checked
	// per shard.
	inFlight core.BatchRing
	// lruHead/lruTail delimit this shard's recency list (least recent
	// first) threaded through the Manager's shared next/prev arrays.
	// List order equals increasing touch-stamp order, which is what
	// lets the coordinator merge shard lists into the global LRU
	// sequence.
	lruHead, lruTail int32

	// sweepCur is the coordinator's per-shard victim-sweep cursor;
	// candQ[candHead:] holds the shard's parked evictable candidates
	// (in recency order) gathered by the latest poll, and candDone
	// marks the shard's eviction order exhausted for this sweep. Exact
	// mode polls one candidate at a time; the batched modes gather the
	// Plan's whole miss budget per poll.
	sweepCur int32
	candQ    []int32
	candHead int
	candDone bool

	// held is the hold set being assembled for the current Plan;
	// heldPool recycles retired hold-set buffers.
	held     []int32
	heldPool [][]int32

	// queries/hits are per-shard occurrence counters (shard-balance
	// observability; the empty-shard tests read them).
	queries, hits int64
	// occHits/occMisses accumulate the current Plan's per-shard
	// occurrence counts, reduced serially after the parallel pass.
	occHits, occMisses int
}

// nilSlot is the recency-list terminator (and the "no candidate"
// sentinel of the victim sweep).
const nilSlot = int32(-1)

// Manager is the sharded per-table scratchpad control plane. It exposes
// the same Plan/Release/Recycle/Prewarm lifecycle as core.Scratchpad and
// produces identical plans and statistics at every shard count; with
// Shards == 1 it *is* a core.Scratchpad behind a thin delegation layer.
type Manager struct {
	cfg     core.Config
	nshards int
	pool    *par.Pool

	// place is the shard-to-node assignment; coord meters the
	// coordinator's cross-node traffic under it (nil when co-located:
	// no metering, zero cost). lastCoord is the coordination latency
	// charged to the most recent Plan.
	place     hw.Placement
	coord     *coordMeter
	lastCoord float64
	// coordBase carries lifetime coordination traffic across reshard
	// events (each event retires its meter; see installPlacement).
	coordBase CoordStats
	// prewarming suppresses coordination metering during PrewarmRows
	// (setup-time slot shuffling is not per-iteration traffic).
	prewarming bool

	// Overlapped coordination (see spec.go): spec parks one speculative
	// sweep between SpeculatePlan and the Plan that adopts or rolls it
	// back; specFlags/specDirty are the sparse projection overlay;
	// specEntryClock snapshots the stamp clock at Plan entry for the
	// adoption guard; overlap counts lifetime outcomes. lastCoordCrit /
	// lastCoordWall are the most recent Plan's critical modeled share
	// and measured wall twin (see LastPlanCoordCritical).
	spec           specState
	specFlags      []uint8
	specDirty      []int32
	specEntryClock uint64
	overlap        OverlapStats
	lastCoordCrit  float64
	lastCoordWall  float64

	// mode is the coordination protocol; quantum is the approx-mode
	// recency quantum in clock ticks (1 outside approx mode, so the
	// victim merge compares raw stamps); pollK is the current Plan's
	// candidate batch size (1 in exact mode, the miss budget
	// otherwise).
	mode    CoordMode
	quantum uint64
	pollK   int

	// shadow is approx mode's exact reference planner: it consumes the
	// identical Plan stream so the divergence the quantized recency
	// introduces is measured, not assumed. div accumulates the
	// comparison; edScratch/evSelf/evShadow back it allocation-free.
	shadow    *core.Scratchpad
	div       Divergence
	edScratch []int32
	evSelf    []int64
	evShadow  []int64

	// single is the unsharded fast path (Shards == 1): full delegation,
	// bit-identical to the pre-sharding tree.
	single *core.Scratchpad

	// elastic marks the manager reshardable (see reshard.go): its shard
	// count may change between Plans via Reshard. loadProbe is the
	// fixed-granularity query-mass histogram load-triggered reshard
	// policies read (occurrences bucketed by ShardOf(id,
	// LoadProbeBuckets); nil unless Config.LoadProbe opted in);
	// resharding tracks the lifetime migration totals and lastReshard
	// the most recent event's modeled latency.
	elastic     bool
	loadProbe   []int64
	resharding  ReshardStats
	lastReshard float64

	// Failure state (see failure.go): degraded marks partition-mode
	// approx coordination (preMode/preQuantum restore on Heal); evac
	// totals host-evacuation activity and lastEvac the most recent
	// event's modeled recovery-transfer latency.
	degraded   bool
	preMode    CoordMode
	preQuantum uint64
	evac       EvacStats
	lastEvac   float64

	shards []shardState
	// meta/next/prev are global per-slot arrays. A slot belongs to
	// exactly one shard at a time (the one whose ID occupies it), so
	// shard-parallel writes never alias; empty slots are touched only
	// by the serial coordinator.
	meta       []slotMeta
	next, prev []int32
	// hintStamp[slot] == pinEpoch marks a deep-look-ahead eviction
	// hint (allocated lazily like the unsharded planner's).
	hintStamp   []int64
	hintRelaxed bool

	// stampClock is the global recency timeline: every touch gets the
	// next stamp, assigned deterministically by batch position so the
	// shard-parallel pass reproduces the serial touch order.
	stampClock uint64

	// Look-ahead pin epoch state (same discipline as core.Scratchpad,
	// lifted to the coordinator).
	pinEpoch      int64
	pinValid      int64
	lastPinnedSeq int
	havePinned    bool

	// The eviction-budget coordinator's global capacity accounting:
	// freePrimaryTotal counts unused primary slots across all shards
	// (shards borrow from each other before anyone evicts, so eviction
	// starts exactly when the unsharded free list would run dry);
	// freeReserve is the global reserve stack.
	freePrimaryTotal int
	freeReserve      []int32
	reserveInUse     int
	sweepArmed       bool

	// planPool recycles PlanResults; scratch slices back the Plan
	// passes: shardOf routes each uniq position to its owner (read by
	// the serial coordinator pass), uniqIdx/winIdx bucket the batch and
	// look-ahead-window positions per shard so each shard's parallel
	// pass walks only its own share (O(batch+window) total routing work
	// instead of S skip-scans), winIDs is the flattened window.
	planPool    []*core.PlanResult
	shardOf     []uint16
	uniqIdx     [][]int32
	winIdx      [][]int32
	winIDs      []int64
	missIdx     []int32
	dedup       *intmap.Map
	uniqScratch []int64
	cntScratch  []int32
	// seen is PrewarmRows' rows-wide duplicate-draw bitmap and draws
	// approx mode's record of the prewarm draw stream (replayed into the
	// shadow planner); both are kept across Resets and cleared per use.
	seen  []uint64
	draws []int64

	stats core.Stats
}

// New builds a sharded manager from cfg: Reset on a zero Manager.
func New(cfg Config) (*Manager, error) {
	m := &Manager{}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitialises m for cfg into exactly the state New(cfg) builds,
// so every later Plan, Stats, CoordStats and ForEach matches a fresh
// manager's. Like core.Scratchpad.Reset it keeps the capacity of every
// buffer, which is what makes a reset cheaper than a rebuild. At S=1
// (non-elastic) that is the delegate core.Scratchpad's; at every other
// shape it is the slot metadata, each shard's Hit-Map, free list and
// hold-set pool, the Plan pool, the routing scratch, approx's shadow
// planner, and the coordination meter with its message plane. Batches
// still in flight are dropped (their hold sets return to the pools). On
// error m is unchanged.
func (m *Manager) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := max(cfg.Shards, 1)
	mode, err := ParseCoordMode(string(cfg.Coord))
	if err != nil {
		return err
	}
	c := cfg.Scratchpad
	if n == 1 && !cfg.Elastic {
		// The S=1 delegate has no cross-shard coordination; every mode
		// is trivially exact. (Elastic managers skip the delegation so
		// their state lives in the migratable generic representation.)
		sp := m.single
		if sp == nil {
			sp = &core.Scratchpad{}
		}
		if err := sp.Reset(c); err != nil {
			return err
		}
		*m = Manager{cfg: c, nshards: 1, pool: cfg.Pool, mode: mode, quantum: 1, single: sp}
		return nil
	}
	var shadow *core.Scratchpad
	if mode == CoordApprox {
		if shadow = m.shadow; shadow == nil {
			shadow = &core.Scratchpad{}
		}
		if err := shadow.Reset(c); err != nil {
			return err
		}
	}
	total := c.Slots + c.Reserve
	// Carry the buffers over; every other field takes its zero value, as
	// in a fresh manager.
	old := *m
	*m = Manager{
		cfg:     c,
		nshards: n,
		pool:    cfg.Pool,
		place:   cfg.Placement,
		coord:   old.coord.reset(cfg.Placement, n, mode),
		mode:    mode,
		quantum: 1,
		pollK:   1,
		spec: specState{
			candQ:    old.spec.candQ[:0],
			lastCand: old.spec.lastCand[:0],
			candDone: old.spec.candDone[:0],
		},
		specFlags:   old.specFlags,
		specDirty:   old.specDirty[:0],
		shadow:      shadow,
		edScratch:   old.edScratch,
		evSelf:      old.evSelf[:0],
		evShadow:    old.evShadow[:0],
		elastic:     cfg.Elastic,
		shards:      slices.Grow(old.shards[:0], n)[:n],
		meta:        slices.Grow(old.meta[:0], total)[:total],
		next:        zeroed(old.next, total),
		prev:        zeroed(old.prev, total),
		hintStamp:   old.hintStamp[:0],
		freeReserve: slices.Grow(old.freeReserve[:0], c.Reserve),
		planPool:    old.planPool,
		shardOf:     old.shardOf,
		uniqIdx:     slices.Grow(old.uniqIdx[:0], n)[:n],
		winIdx:      slices.Grow(old.winIdx[:0], n)[:n],
		winIDs:      old.winIDs[:0],
		missIdx:     old.missIdx[:0],
		dedup:       old.dedup,
		uniqScratch: old.uniqScratch[:0],
		cntScratch:  old.cntScratch[:0],
		seen:        old.seen,
		draws:       old.draws[:0],
	}
	clear(m.specFlags)
	if cfg.LoadProbe {
		m.loadProbe = zeroed(old.loadProbe, LoadProbeBuckets)
	}
	if mode == CoordApprox {
		m.quantum = uint64(cfg.CoordQuantum)
		if m.quantum == 0 {
			m.quantum = DefaultApproxQuantum
		}
	}
	m.pinValid = 1
	if c.FutureWindow > 1 && c.PastWindow >= c.FutureWindow {
		m.pinValid = int64(c.FutureWindow)
	}
	m.pinEpoch = m.pinValid
	for i := range m.meta {
		m.meta[i] = slotMeta{key: -1}
	}
	// Stripe the primary slots across shards (slot s starts on shard
	// s % n); each stack is filled descending so pops ascend, matching
	// the unsharded free list's allocation direction.
	for j := range m.shards {
		sh := &m.shards[j]
		sh.reset((c.Slots + c.Reserve/2) / n)
		count := (c.Slots - j + n - 1) / n
		sh.freePrimary = slices.Grow(sh.freePrimary, count)
		for s := j + (count-1)*n; s >= 0; s -= n {
			sh.freePrimary = append(sh.freePrimary, int32(s))
		}
	}
	m.freePrimaryTotal = c.Slots
	for s := total - 1; s >= c.Slots; s-- {
		m.freeReserve = append(m.freeReserve, int32(s))
	}
	return nil
}

// reset empties the shard into its freshly built state — an empty
// Hit-Map sized for hint entries, empty recency and free lists, nothing
// in flight or parked — keeping its buffers and returning its in-flight
// hold sets to the pool.
func (sh *shardState) reset(hint int) {
	for sh.inFlight.Len() > 0 {
		if hb := sh.inFlight.Pop(); hb.Slots != nil {
			sh.heldPool = append(sh.heldPool, hb.Slots)
		}
	}
	hitMap := sh.hitMap
	if hitMap == nil {
		hitMap = &intmap.Map{}
	}
	hitMap.Reset(hint)
	*sh = shardState{
		hitMap:      hitMap,
		freePrimary: sh.freePrimary[:0],
		inFlight:    sh.inFlight,
		lruHead:     nilSlot,
		lruTail:     nilSlot,
		candQ:       sh.candQ[:0],
		heldPool:    sh.heldPool,
	}
}

// Shards returns the shard count.
func (m *Manager) Shards() int { return m.nshards }

// Placement returns the shard-to-node assignment (zero value when
// co-located).
func (m *Manager) Placement() hw.Placement { return m.place }

// LastPlanCoord returns the modeled cross-node coordination latency
// (seconds) of the most recent Plan: zero for co-located placements and
// the S=1 delegate.
func (m *Manager) LastPlanCoord() float64 { return m.lastCoord }

// CoordStats returns the lifetime cross-node coordination traffic (the
// zero value when the placement is co-located), summed across any
// reshard events (each event retires the previous placement's meter).
func (m *Manager) CoordStats() CoordStats {
	s := m.coordBase
	if m.coord != nil {
		s.Merge(m.coord.stats)
	}
	return s
}

// CoordMode returns the coordination protocol the manager runs.
func (m *Manager) CoordMode() CoordMode { return m.mode }

// CoordQuantum returns approx mode's recency quantum in clock ticks
// (1 in every exact-order mode).
func (m *Manager) CoordQuantum() int { return int(m.quantum) }

// Divergence reports how far approximate eviction behaviour drifted
// from the exact global LRU: measured against the shadow planner in
// native approx mode, and inline (quantized victim pick vs raw-stamp
// pick) while a partition has the manager degraded (see failure.go).
// The zero value outside both (exact-order modes cannot diverge).
func (m *Manager) Divergence() Divergence {
	if m.shadow == nil {
		return m.div
	}
	d := m.div
	st, ss := m.stats, m.shadow.Stats()
	d.ApproxHits, d.ApproxQueries = st.Hits, st.Queries
	d.ExactHits, d.ExactQueries = ss.Hits, ss.Queries
	return d
}

// Capacity returns the nominal slot count (excluding reserve).
func (m *Manager) Capacity() int { return m.cfg.Slots }

// TotalSlots returns nominal + reserve capacity.
func (m *Manager) TotalSlots() int { return m.cfg.Slots + m.cfg.Reserve }

// Len returns the number of cached rows across all shards.
func (m *Manager) Len() int {
	if m.single != nil {
		return m.single.Len()
	}
	n := 0
	for j := range m.shards {
		n += m.shards[j].hitMap.Len()
	}
	return n
}

// Contains reports whether sparse ID id currently has a slot.
func (m *Manager) Contains(id int64) bool {
	if m.single != nil {
		return m.single.Contains(id)
	}
	_, ok := m.shards[m.shardFor(id)].hitMap.Get(id)
	return ok
}

// InFlight returns the number of batches currently holding slots.
func (m *Manager) InFlight() int {
	if m.single != nil {
		return m.single.InFlight()
	}
	return m.shards[0].inFlight.Len()
}

// Stats returns the aggregate counters (identical to the unsharded
// planner's at every shard count).
func (m *Manager) Stats() core.Stats {
	if m.single != nil {
		return m.single.Stats()
	}
	return m.stats
}

// ShardStats is one shard's balance snapshot.
type ShardStats struct {
	// Queries/Hits are occurrence-level counters over planned batches.
	Queries, Hits int64
	// Resident is the shard's current Hit-Map population.
	Resident int
	// FreePrimary counts the shard's remaining never-used primary
	// slots (borrowing drains the best-stocked shard first).
	FreePrimary int
}

// ShardStats returns per-shard balance counters (one entry per shard;
// a single-shard manager reports its aggregate as shard 0).
func (m *Manager) ShardStats() []ShardStats {
	if m.single != nil {
		st := m.single.Stats()
		return []ShardStats{{Queries: st.Queries, Hits: st.Hits, Resident: m.single.Len()}}
	}
	out := make([]ShardStats, m.nshards)
	for j := range m.shards {
		sh := &m.shards[j]
		out[j] = ShardStats{
			Queries:     sh.queries,
			Hits:        sh.hits,
			Resident:    sh.hitMap.Len(),
			FreePrimary: len(sh.freePrimary),
		}
	}
	return out
}

// ShardOf returns the shard owning sparse ID id under an S-way hash
// partition (the Manager's own routing function); exported so placement
// policies can estimate per-shard load from a trace distribution.
func ShardOf(id int64, shards int) int {
	return int((uint64(id) * fibMult) >> 32 % uint64(shards))
}

// shardFor hashes a sparse ID to its owning shard.
func (m *Manager) shardFor(id int64) int {
	return ShardOf(id, m.nshards)
}

// --- recency lists -----------------------------------------------------

// pushMRU appends slot at the most-recent end of shard j's list.
func (m *Manager) pushMRU(j int, slot int32) {
	sh := &m.shards[j]
	m.next[slot] = nilSlot
	m.prev[slot] = sh.lruTail
	if sh.lruTail != nilSlot {
		m.next[sh.lruTail] = slot
	} else {
		sh.lruHead = slot
	}
	sh.lruTail = slot
}

// unlink removes slot from shard j's list.
func (m *Manager) unlink(j int, slot int32) {
	sh := &m.shards[j]
	p, nx := m.prev[slot], m.next[slot]
	if p != nilSlot {
		m.next[p] = nx
	} else {
		sh.lruHead = nx
	}
	if nx != nilSlot {
		m.prev[nx] = p
	} else {
		sh.lruTail = p
	}
}

// touch moves slot to shard j's most-recent end and stamps it.
func (m *Manager) touch(j int, slot int32, stamp uint64) {
	m.unlink(j, slot)
	m.pushMRU(j, slot)
	m.meta[slot].stamp = stamp
}

// --- eviction coordination ---------------------------------------------

// isEvictable is the victim predicate (same as the unsharded planner's:
// no holds, no in-window pin, occupied, and — unless the search has
// relaxed — not hinted for reuse by deep look-ahead).
func (m *Manager) isEvictable(slot int32) bool {
	sm := &m.meta[slot]
	if sm.holds != 0 || sm.pinStamp > m.pinEpoch-m.pinValid || sm.key < 0 {
		return false
	}
	return m.hintRelaxed || m.hintStamp[slot] != m.pinEpoch
}

// armSweep resets every shard's sweep cursor to its least-recent end
// and flushes the parked candidate batches (a re-arm changes the
// evictability predicate, so gathered candidates are stale and the next
// consultation re-polls). Mirrors BeginVictimSweep: within one Plan no
// slot can *become* evictable, so skipped slots are never revisited
// until a re-arm.
func (m *Manager) armSweep() {
	for j := range m.shards {
		sh := &m.shards[j]
		sh.sweepCur = sh.lruHead
		sh.candQ = sh.candQ[:0]
		sh.candHead = 0
		sh.candDone = false
	}
	if m.coord != nil {
		m.coord.beginSweep()
	}
}

// shardCand returns shard j's next parked evictable candidate, polling
// the shard to refill its candidate batch when the parked ones are
// consumed; nilSlot when the shard's eviction order is exhausted for
// this sweep. One poll round gathers up to pollK candidates in recency
// order (1 in exact mode — the PR 3 protocol — or the Plan's whole miss
// budget in the batched modes, so a single round per shard covers the
// sweep); parked candidates cost nothing to re-compare, and a batch is
// invalidated only by a sweep re-arm.
func (m *Manager) shardCand(j int) int32 {
	sh := &m.shards[j]
	if sh.candHead < len(sh.candQ) {
		return sh.candQ[sh.candHead]
	}
	if sh.candDone {
		return nilSlot
	}
	sh.candQ = sh.candQ[:0]
	sh.candHead = 0
	cur := sh.sweepCur
	for cur != nilSlot && len(sh.candQ) < m.pollK {
		nxt := m.next[cur]
		if m.isEvictable(cur) {
			sh.candQ = append(sh.candQ, cur)
		}
		cur = nxt
	}
	sh.sweepCur = cur
	if m.coord != nil {
		m.coord.meterPoll(j, len(sh.candQ))
	}
	if len(sh.candQ) == 0 {
		sh.candDone = true
		return nilSlot
	}
	if cur == nilSlot && m.mode != CoordExact {
		// A short batch's reply already says the shard is exhausted;
		// no follow-up empty poll is needed. (Exact mode keeps the PR 3
		// behaviour: exhaustion is discovered by one final empty poll.)
		sh.candDone = true
	}
	return sh.candQ[0]
}

// olderStamp orders two candidate slots on the recency timeline. The
// exact-order modes compare raw global stamps, which are unique, so the
// k-way merge reproduces the serial LRU sequence bit for bit. Approx
// mode compares epoch-quantized stamps: candidates inside one quantum
// tie and resolve toward the lower shard index (the merge loop's scan
// order), which is exactly where its measured divergence comes from.
func (m *Manager) olderStamp(a, b int32) bool {
	if m.quantum > 1 {
		return m.meta[a].stamp/m.quantum < m.meta[b].stamp/m.quantum
	}
	return m.meta[a].stamp < m.meta[b].stamp
}

// victim k-way-merges the shard candidate batches by touch stamp and
// consumes the globally least-recently-used evictable slot — exactly the
// slot the unsharded planner's single LRU sweep would pick (up to
// quantization in approx mode). Returns the slot and its owning shard,
// or (-1, -1) when every shard is exhausted.
func (m *Manager) victim() (int32, int) {
	best, bestShard := nilSlot, -1
	rawBest := nilSlot
	for j := 0; j < m.nshards; j++ {
		c := m.shardCand(j)
		if c < 0 {
			continue
		}
		if best < 0 || m.olderStamp(c, best) {
			best, bestShard = c, j
		}
		if m.degraded && (rawBest < 0 || m.meta[c].stamp < m.meta[rawBest].stamp) {
			rawBest = c
		}
	}
	if m.degraded && best >= 0 && best != rawBest {
		// Inline divergence metering for partition-mode approx: the
		// quantized merge picked a different victim than the raw-stamp
		// merge would have — one substitution in the eviction sequence.
		m.div.EditDistance++
	}
	if best >= 0 {
		m.shards[bestShard].candHead++
		if m.coord != nil {
			// Confirm the merge winner to its owning shard, which
			// unlinks the victim: an immediate round in exact mode,
			// aggregated per shard at Plan end otherwise.
			m.coord.meterConfirm(bestShard)
		}
	}
	return best, bestShard
}

// borrowPrimary pops a never-used primary slot for shard j, borrowing
// from the best-stocked shard when j's own stripe has run dry. The
// global budget (freePrimaryTotal) guarantees no shard evicts while any
// shard still has free capacity — the coordinator property that keeps
// eviction onset identical to the unsharded planner.
func (m *Manager) borrowPrimary(j int) int32 {
	sh := &m.shards[j]
	if len(sh.freePrimary) == 0 {
		donor, max := -1, 0
		for k := range m.shards {
			if l := len(m.shards[k].freePrimary); l > max {
				donor, max = k, l
			}
		}
		if donor < 0 {
			return nilSlot
		}
		if m.coord != nil && donor != j && !m.prewarming {
			// Free-slot borrow: request/grant round trip between the
			// starved shard and the donor stripe's owner. Prewarm-time
			// borrowing is construction work before the measured run
			// starts and is deliberately not metered — otherwise the
			// warm-up's slot shuffling would be billed to the first
			// Plan's coordination latency.
			m.coord.meterBorrow(j, donor)
		}
		sh = &m.shards[donor]
	}
	n := len(sh.freePrimary)
	slot := sh.freePrimary[n-1]
	sh.freePrimary = sh.freePrimary[:n-1]
	m.freePrimaryTotal--
	return slot
}

// reindex rebuilds shard j's slot->entry positions after its hitMap grew.
func (m *Manager) reindex(j int) {
	m.shards[j].hitMap.ForEachIdx(func(idx int, _ int64, slot int32) {
		m.meta[slot].entryIdx = int32(idx)
	})
}

// insert places id (owned by shard j) into slot: hitMap entry, metadata,
// recency stamp, and the current Plan's hold.
func (m *Manager) insert(j int, id int64, slot int32) {
	sh := &m.shards[j]
	// PutIdx grows before inserting, so the returned position is valid
	// even when the map just grew; reindex repairs the older entries.
	cap0 := sh.hitMap.Cap()
	at := sh.hitMap.PutIdx(id, slot)
	if sh.hitMap.Cap() != cap0 {
		m.reindex(j)
	}
	sm := &m.meta[slot]
	sm.key = id
	sm.entryIdx = int32(at)
	m.stampClock++
	sm.stamp = m.stampClock
	m.pushMRU(j, slot)
	sm.holds++
	sh.held = append(sh.held, slot)
}

// --- plan lifecycle ----------------------------------------------------

// getPlanResult pops a recycled PlanResult or builds a fresh one.
func (m *Manager) getPlanResult() *core.PlanResult {
	if n := len(m.planPool); n > 0 {
		res := m.planPool[n-1]
		m.planPool[n-1] = nil
		m.planPool = m.planPool[:n-1]
		return res
	}
	return core.NewPlanResult()
}

// Recycle returns a retired batch's plan buffers to the free list (see
// core.Scratchpad.Recycle).
func (m *Manager) Recycle(res *core.PlanResult) {
	if m.single != nil {
		m.single.Recycle(res)
		return
	}
	if res == nil {
		return
	}
	res.Reset()
	m.planPool = append(m.planPool, res)
}

// getHeld pops a recycled hold-set buffer for shard j.
func (sh *shardState) getHeld() []int32 {
	if n := len(sh.heldPool); n > 0 {
		buf := sh.heldPool[n-1]
		sh.heldPool[n-1] = nil
		sh.heldPool = sh.heldPool[:n-1]
		return buf[:0]
	}
	return nil
}

// Plan runs the [Plan] stage for one mini-batch (see core.Scratchpad.Plan).
func (m *Manager) Plan(seq int, ids []int64, future [][]int64) (*core.PlanResult, error) {
	return m.PlanWithHints(seq, ids, future, nil)
}

// PlanWithHints is Plan with deep look-ahead eviction hints (see
// core.Scratchpad.PlanWithHints).
func (m *Manager) PlanWithHints(seq int, ids []int64, future, hints [][]int64) (*core.PlanResult, error) {
	if m.single != nil {
		return m.single.PlanWithHints(seq, ids, future, hints)
	}
	if m.dedup == nil {
		m.dedup = intmap.New(len(ids))
	}
	uniq, cnt := m.uniqScratch[:0], m.cntScratch[:0]
	if cap(uniq) < len(ids) {
		uniq = make([]int64, 0, len(ids))
		cnt = make([]int32, 0, len(ids))
	}
	uniq, cnt = intmap.Dedup(ids, m.dedup, uniq, cnt)
	m.uniqScratch, m.cntScratch = uniq, cnt
	return m.PlanUniqueWithHints(seq, uniq, cnt, future, hints)
}

// PlanUniqueWithHints is the planner's native form (see
// core.Scratchpad.PlanUniqueWithHints). The per-occurrence work — Hit-Map
// probes, recency touches, pin/hint stamping, hold registration — fans
// out across shards; the eviction-budget coordinator then allocates the
// misses serially in first-appearance order, reproducing the unsharded
// planner's victim sequence through the cross-shard stamp merge.
func (m *Manager) PlanUniqueWithHints(seq int, uniq []int64, counts []int32, future, hints [][]int64) (*core.PlanResult, error) {
	if m.single != nil {
		return m.single.PlanUniqueWithHints(seq, uniq, counts, future, hints)
	}
	if got := len(future); got > m.cfg.FutureWindow {
		return nil, fmt.Errorf("shard: plan %d: %d future batches exceeds future window %d", seq, got, m.cfg.FutureWindow)
	}

	// Snapshot the stamp clock before anything moves: the speculative
	// sweep (if one is parked) was taken against exactly this value.
	m.specEntryClock = m.stampClock

	// Pin-epoch bookkeeping (identical to the unsharded planner; see
	// core.Scratchpad for the multi-epoch stamp argument).
	m.pinEpoch++
	futStart := 0
	if m.pinValid > 1 && m.havePinned {
		if futStart = m.lastPinnedSeq - seq; futStart < 0 {
			futStart = 0
		} else if futStart > len(future) {
			futStart = len(future)
		}
	}
	if n := seq + len(future); len(future) > 0 && (!m.havePinned || n > m.lastPinnedSeq) {
		m.lastPinnedSeq = n
		m.havePinned = true
	}
	if len(hints) > 0 && len(m.hintStamp) == 0 {
		m.hintStamp = zeroed(m.hintStamp, m.TotalSlots())
	}

	res := m.getPlanResult()
	res.Seq = seq
	m.hintRelaxed = len(hints) == 0

	if cap(res.UniqueIDs) < len(uniq) {
		res.UniqueIDs = make([]int64, 0, len(uniq))
		res.Slots = make([]int32, 0, len(uniq))
	}
	res.UniqueIDs = append(res.UniqueIDs, uniq...)
	res.Slots = res.Slots[:len(uniq)]
	// Route the batch and the look-ahead window once, bucketing
	// positions per owning shard: the parallel pass below then walks
	// only each shard's own share (total routing work O(batch+window),
	// not S skip-scans). shardOf keeps the per-position owner for the
	// serial coordinator pass.
	if cap(m.shardOf) < len(uniq) {
		m.shardOf = make([]uint16, len(uniq))
	}
	shardOf := m.shardOf[:len(uniq)]
	for j := range m.uniqIdx {
		m.uniqIdx[j] = m.uniqIdx[j][:0]
		m.winIdx[j] = m.winIdx[j][:0]
	}
	for i, id := range uniq {
		j := m.shardFor(id)
		shardOf[i] = uint16(j)
		m.uniqIdx[j] = append(m.uniqIdx[j], int32(i))
		if m.loadProbe != nil {
			// Elastic managers histogram the query mass at a fixed
			// S-independent granularity so load-triggered reshard
			// policies can observe ID-space skew even at S=1.
			c := int64(1)
			if counts != nil {
				c = int64(counts[i])
			}
			m.loadProbe[ShardOf(id, LoadProbeBuckets)] += c
		}
	}
	fut := future[futStart:]
	winIDs := m.winIDs[:0]
	for _, fids := range fut {
		for _, id := range fids {
			j := m.shardFor(id)
			m.winIdx[j] = append(m.winIdx[j], int32(len(winIDs)))
			winIDs = append(winIDs, id)
		}
	}
	hintOff := len(winIDs)
	for _, hids := range hints {
		for _, id := range hids {
			j := m.shardFor(id)
			m.winIdx[j] = append(m.winIdx[j], int32(len(winIDs)))
			winIDs = append(winIDs, id)
		}
	}
	m.winIDs = winIDs

	// Shard-parallel pass: every shard pins its own future IDs, stamps
	// its own hints, and classifies its own partition of the batch.
	// Touch stamps are assigned by batch position (stampBase + i), so
	// the shard-parallel pass reproduces the exact recency order the
	// serial planner would produce; all writes go through slots owned
	// by the executing shard, so the fan-out is race-free and
	// bit-identical at any worker count.
	stampBase := m.stampClock
	m.pool.ForEach(m.nshards, func(j int) {
		sh := &m.shards[j]
		for _, w := range m.winIdx[j] {
			if slot, ok := sh.hitMap.Get(winIDs[w]); ok {
				if int(w) < hintOff {
					m.meta[slot].pinStamp = m.pinEpoch
				} else {
					m.hintStamp[slot] = m.pinEpoch
				}
			}
		}
		held := sh.getHeld()
		occHits, occMisses := 0, 0
		for _, iPos := range m.uniqIdx[j] {
			i := int(iPos)
			id := uniq[i]
			c := 1
			if counts != nil {
				c = int(counts[i])
			}
			if slot, ok := sh.hitMap.Get(id); ok {
				occHits += c
				res.Slots[i] = slot
				m.touch(j, slot, stampBase+uint64(i)+1)
				m.meta[slot].holds++
				held = append(held, slot)
				continue
			}
			occMisses++
			occHits += c - 1
			res.Slots[i] = -1
		}
		sh.held = held
		sh.occHits, sh.occMisses = occHits, occMisses
		sh.queries += int64(occHits + occMisses)
		sh.hits += int64(occHits)
	})
	m.stampClock = stampBase + uint64(len(uniq))
	for j := range m.shards {
		sh := &m.shards[j]
		res.OccHits += sh.occHits
		res.OccMisses += sh.occMisses
	}
	if m.coord != nil {
		// Touch-stamp sync: the coordinator broadcasts the Plan's stamp
		// base and collects each remote shard's touch count so the
		// global recency timeline stays merge-consistent — per remote
		// shard in exact/batched, aggregated through the host tier in
		// hier, and not at all in approx (quantized epochs need no
		// global clock; co-located endpoints are always free).
		m.coord.meterStampSync()
	}

	// Collect the misses in first-appearance order (the order the
	// coordinator must allocate them in to match the serial planner).
	missIdx := m.missIdx[:0]
	if cap(missIdx) < len(uniq) {
		missIdx = make([]int32, 0, len(uniq))
	}
	for i := range res.Slots {
		if res.Slots[i] < 0 {
			missIdx = append(missIdx, int32(i))
		}
	}
	m.missIdx = missIdx

	// Size the candidate batches from the Plan's miss budget: at most
	// len(missIdx) victims can be needed, so one batched poll round per
	// shard always covers the sweep. Exact mode polls one at a time.
	m.pollK = 1
	if m.mode != CoordExact && len(missIdx) > 1 {
		m.pollK = len(missIdx)
	}

	if cap(res.Fills) < len(missIdx) {
		res.Fills = make([]core.Fill, 0, len(missIdx))
	}
	if cap(res.Evictions) < len(missIdx) {
		res.Evictions = make([]core.Eviction, 0, len(missIdx))
	}

	// Serial coordinator pass: allocate the misses. Free primary
	// capacity (own stripe, then borrowed) precedes eviction; the
	// cross-shard stamp merge picks victims in global LRU order; the
	// reserve budget is the last resort, exactly as unsharded.
	m.sweepArmed = false
	for _, k := range missIdx {
		id := uniq[k]
		j := int(shardOf[k])
		slot := m.borrowPrimary(j)
		if slot < 0 {
			if !m.sweepArmed {
				// Adoption point: a valid speculation installs the
				// sweep pre-answered (its polls become the Plan's
				// hidden coordination share); otherwise arm critically.
				if !m.adoptSpec(seq, len(uniq), len(missIdx)) {
					m.armSweep()
				}
				m.sweepArmed = true
			}
			v, vsh := m.victim()
			if v < 0 && !m.hintRelaxed {
				// Every unprotected slot is merely hinted: relax
				// the preference and sweep once more.
				m.hintRelaxed = true
				m.armSweep()
				v, vsh = m.victim()
			}
			if v >= 0 {
				old := m.meta[v].key
				m.shards[vsh].hitMap.DeleteAt(int(m.meta[v].entryIdx), func(slot int32, newIdx int) {
					m.meta[slot].entryIdx = int32(newIdx)
				})
				m.unlink(vsh, v)
				m.meta[v].key = -1
				slot = v
				if m.coord != nil && vsh != j {
					// The victim's slot changes owners: transfer its
					// control metadata to the missing ID's shard
					// (immediately in exact mode, one aggregated round
					// per shard pair at Plan end otherwise).
					m.coord.meterSlotMove(vsh, j)
				}
				res.Evictions = append(res.Evictions, core.Eviction{OldID: old, Slot: slot})
			} else if n := len(m.freeReserve); n > 0 {
				slot = m.freeReserve[n-1]
				m.freeReserve = m.freeReserve[:n-1]
				m.reserveInUse++
				if m.reserveInUse > m.stats.ReservePeak {
					m.stats.ReservePeak = m.reserveInUse
				}
				res.ReserveAllocs++
			} else {
				return nil, fmt.Errorf("shard: plan %d: scratchpad exhausted: %d slots + %d reserve all protected across %d shards (in-flight %d batches)",
					seq, m.cfg.Slots, m.cfg.Reserve, m.nshards, m.InFlight())
			}
		}
		m.insert(j, id, slot)
		res.Slots[k] = slot
		res.Fills = append(res.Fills, core.Fill{ID: id, Slot: slot})
	}

	// Register every shard's hold set (one ring entry per Plan, even
	// when empty, keeping Release FIFO-checkable per shard).
	for j := range m.shards {
		sh := &m.shards[j]
		sh.inFlight.Push(core.HeldBatch{Seq: seq, Slots: sh.held})
		sh.held = nil
	}

	// Retire a speculation this Plan never consumed (no sweep armed)
	// before pricing, so its staged ledger cannot leak into the bill.
	m.endSpecPlan(seq)
	if m.coord != nil {
		m.lastCoord = m.coord.finishPlan()
		m.lastCoordCrit = m.coord.lastCrit
		m.lastCoordWall = m.coord.lastWallFull
	} else {
		m.lastCoordCrit, m.lastCoordWall = 0, 0
	}

	if m.shadow != nil {
		// Approx mode: the shadow exact planner consumes the identical
		// Plan, and the victim sequences are compared so the
		// quantization's divergence is measured per Plan. The shadow's
		// result buffers recycle immediately (its hold state lives in
		// the planner, not the result).
		sres, err := m.shadow.PlanUniqueWithHints(seq, uniq, counts, future, hints)
		if err != nil {
			return nil, fmt.Errorf("shard: plan %d: approx shadow planner: %w", seq, err)
		}
		m.evSelf = m.evSelf[:0]
		for _, e := range res.Evictions {
			m.evSelf = append(m.evSelf, e.OldID)
		}
		m.evShadow = m.evShadow[:0]
		for _, e := range sres.Evictions {
			m.evShadow = append(m.evShadow, e.OldID)
		}
		var dist int
		dist, m.edScratch = editDistance(m.evSelf, m.evShadow, m.edScratch)
		m.div.Plans++
		m.div.EditDistance += int64(dist)
		m.div.ApproxEvictions += int64(len(res.Evictions))
		m.div.ExactEvictions += int64(len(sres.Evictions))
		m.shadow.Recycle(sres)
	}

	if m.degraded {
		// Partition-mode divergence accounting (both planners see the
		// same Plan, so the eviction counts agree; the edit distance
		// accumulated per differing victim pick in the merge).
		m.div.Plans++
		m.div.ApproxEvictions += int64(len(res.Evictions))
		m.div.ExactEvictions += int64(len(res.Evictions))
	}

	m.stats.Planned++
	m.stats.Queries += int64(res.OccHits + res.OccMisses)
	m.stats.Hits += int64(res.OccHits)
	m.stats.Misses += int64(res.OccMisses)
	m.stats.UniqueQueries += int64(len(res.UniqueIDs))
	m.stats.UniqueMisses += int64(len(res.Fills))
	m.stats.UniqueHits += int64(len(res.UniqueIDs) - len(res.Fills))
	m.stats.Fills += int64(len(res.Fills))
	m.stats.Evictions += int64(len(res.Evictions))
	m.stats.ReserveAllocs += int64(res.ReserveAllocs)
	return res, nil
}

// Release drops the oldest in-flight batch's holds on every shard (see
// core.Scratchpad.Release); shards release in parallel.
func (m *Manager) Release(seq int) error {
	if m.single != nil {
		return m.single.Release(seq)
	}
	err := m.pool.ForEachErr(m.nshards, func(j int) error {
		sh := &m.shards[j]
		if sh.inFlight.Len() == 0 {
			return fmt.Errorf("shard: release %d: no in-flight batches", seq)
		}
		if got := sh.inFlight.Front().Seq; got != seq {
			return fmt.Errorf("shard: release %d: oldest in-flight batch is %d (releases must be FIFO)", seq, got)
		}
		hb := sh.inFlight.Pop()
		for _, slot := range hb.Slots {
			if m.meta[slot].holds <= 0 {
				return fmt.Errorf("shard: release %d: slot %d hold underflow", seq, slot)
			}
			m.meta[slot].holds--
		}
		if hb.Slots != nil {
			sh.heldPool = append(sh.heldPool, hb.Slots)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if m.shadow != nil {
		if err := m.shadow.Release(seq); err != nil {
			return fmt.Errorf("shard: approx shadow planner: %w", err)
		}
	}
	m.stats.Released++
	return nil
}

// Prewarm fills free capacity with IDs drawn from sample before training
// starts (see core.Scratchpad.Prewarm).
func (m *Manager) Prewarm(sample func() int64, onFill func(id int64, slot int32)) int {
	return m.PrewarmRows(0, sample, onFill)
}

// PrewarmRows is Prewarm with a known sparse-ID domain (see
// core.Scratchpad.PrewarmRows). Draw sequence, duplicate decisions, and
// the set of inserted rows are identical to the unsharded planner's;
// only the physical slot numbers differ.
func (m *Manager) PrewarmRows(rows int64, sample func() int64, onFill func(id int64, slot int32)) int {
	if m.single != nil {
		return m.single.PrewarmRows(rows, sample, onFill)
	}
	if m.InFlight() != 0 {
		panic("shard: Prewarm with batches in flight")
	}
	// Prewarm inserts move recency lists and the stamp clock: any parked
	// speculation is stale.
	m.invalidateSpec()
	m.prewarming = true
	defer func() { m.prewarming = false }()
	if m.shadow != nil {
		// Tee the draw stream so the shadow exact planner warms to the
		// identical content (draw sequences and duplicate decisions are
		// identical by the prewarm-equivalence property, so the shadow
		// consumes exactly the recorded draws).
		m.draws = m.draws[:0]
		inner := sample
		sample = func() int64 {
			id := inner()
			m.draws = append(m.draws, id)
			return id
		}
		defer func() {
			i := 0
			m.shadow.PrewarmRows(rows, func() int64 { id := m.draws[i]; i++; return id }, nil)
		}()
	}
	var seen []uint64
	if rows > 0 {
		m.seen = zeroed(m.seen, int((rows+63)/64))
		seen = m.seen
	}
	inserted := 0
	limit := 8*m.cfg.Slots + 100
	for draws := 0; m.freePrimaryTotal > 0 && draws < limit; draws++ {
		id := sample()
		j := m.shardFor(id)
		sh := &m.shards[j]
		if seen != nil {
			w, bit := id/64, uint64(1)<<(uint64(id)%64)
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
		} else if _, ok := sh.hitMap.Get(id); ok {
			continue
		}
		slot := m.borrowPrimary(j)
		cap0 := sh.hitMap.Cap()
		at := sh.hitMap.PutIdx(id, slot)
		if sh.hitMap.Cap() != cap0 {
			m.reindex(j)
		}
		sm := &m.meta[slot]
		sm.key = id
		sm.entryIdx = int32(at)
		m.stampClock++
		sm.stamp = m.stampClock
		m.pushMRU(j, slot)
		if onFill != nil {
			onFill(id, slot)
		}
		inserted++
	}
	return inserted
}

// ForEach visits every cached (sparse ID, slot) pair, shard by shard, in
// unspecified order within each shard.
func (m *Manager) ForEach(f func(id int64, slot int32)) {
	if m.single != nil {
		m.single.ForEach(f)
		return
	}
	for j := range m.shards {
		m.shards[j].hitMap.ForEach(f)
	}
}

// Held reports whether a slot is currently protected by any in-flight
// batch; exported for invariant tests.
func (m *Manager) Held(slot int32) bool {
	if m.single != nil {
		return m.single.Held(slot)
	}
	return m.meta[slot].holds != 0
}

// Key returns the sparse ID cached in slot, or -1. Exported for tests.
func (m *Manager) Key(slot int32) int64 {
	if m.single != nil {
		return m.single.Key(slot)
	}
	return m.meta[slot].key
}
