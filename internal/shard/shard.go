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
// The slot discipline itself — slot metadata and the evictability
// predicate, the pin epoch and hints, the reserve budget, the FIFO hold
// release, the Prewarm draw rule, the plan pool and the statistics —
// lives once, in core.Frame, which the Manager embeds; this package adds
// only what sharding needs on top of it. With Shards == 1 the Manager
// delegates Plan, Release and Prewarm to a single core.Scratchpad and
// embeds that scratchpad's own frame, making the S=1 configuration
// bit-identical to the unsharded tree by construction (including its
// zero-allocation Plan path). Shards > 1 requires the LRU policy: the
// stamp-merge coordinator is the distributed form of the LRU eviction
// order specifically.
//
// A Config.Placement assigns shards to the nodes of an hw.Topology
// (sockets, hosts, GPUs); the coordinator's victim-merge, touch-stamp,
// and free-slot-borrow messages are then metered in bytes and charged to
// the links the assignment crosses (coord.go), pricing the communication
// wall a scale-out deployment pays. Placement changes only the modeled
// coordination latency — never plans, victims, or statistics. How the
// coordinator talks over those links is selected by Config.Coord
// (hierarchy.go): exact per-eviction rounds, batched candidate polls
// through a per-host aggregation tier, or approximate epoch-quantized
// LRU.
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

// MaxShards is the largest shard count a Manager supports: the Plan's
// routing pass records each batch position's owning shard in 16 bits.
const MaxShards = 1 << 16

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
	// exact (default, per-eviction rounds), hier (one candidate batch
	// per shard per sweep through a per-host aggregation tier, Plan-end
	// aggregated confirms), or approx (hier minus stamp sync, with
	// epoch-quantized recency). Exact and hier produce identical plans,
	// victims, and statistics; approx may diverge.
	Coord CoordMode
	// Elastic builds a manager whose shard count can change at run time
	// via [Manager.Reshard] (see reshard.go). It requires the LRU policy
	// (resharding re-threads LRU recency state) and makes Shards == 1
	// run the generic sharded machinery instead of delegating to a
	// single core.Scratchpad — plans, victims, and statistics stay
	// identical (TestElasticSingleShardBitIdentical proves slot-level
	// identity), and a warm Plan cycle still allocates nothing.
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
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("shard: Shards %d outside 0..%d", c.Shards, MaxShards)
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
	n := c.Shards
	if n == 0 {
		n = 1
	}
	if err := c.Placement.Validate(n); err != nil {
		return err
	}
	return c.Scratchpad.Validate()
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
	// inFlight is this shard's FIFO of per-batch hold sets (with their
	// pool); every Plan pushes one entry (possibly empty) so Release
	// stays FIFO-checked per shard.
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
	// mode polls one candidate at a time; hier and approx gather the
	// Plan's whole miss budget per poll.
	sweepCur int32
	candQ    []int32
	candHead int
	candDone bool

	// held is the hold set being assembled for the current Plan.
	held []int32

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
// produces identical plans and statistics at every shard count. The slot
// discipline is its embedded core.Frame; the Manager adds the per-shard
// Hit-Maps, free stripes, hold rings and recency lists, the touch
// stamps, the k-way victim merge, the coordination meter, resharding and
// evacuation.
type Manager struct {
	// Frame is the delegate's own frame at S=1 (non-elastic) and the
	// Manager's otherwise, so what it answers (Stats, Capacity,
	// TotalSlots, InFlight, Recycle, Held, Key) needs no S=1 branch.
	*core.Frame
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

	// Overlapped coordination (see spec.go): overlapNext marks the next
	// Plan overlapped (set by OverlapNextPlan, cleared by the Plan or an
	// invalidating event); overlap counts lifetime outcomes;
	// onHiddenRound, when set (tests only), observes each hidden poll
	// round's candidate batches. lastCoordCrit / lastCoordWall are the
	// most recent Plan's critical modeled share and measured wall twin
	// (see LastPlanCoordCritical).
	overlapNext   bool
	overlap       OverlapStats
	onHiddenRound func()
	lastCoordCrit float64
	lastCoordWall float64

	// mode is the coordination protocol; quantum is the approx-mode
	// recency quantum in clock ticks (1 outside approx mode, so the
	// victim merge compares raw stamps); pollK is the current Plan's
	// candidate batch size (1 in exact mode, the miss budget
	// otherwise).
	mode    CoordMode
	quantum uint64
	pollK   int

	// single is the unsharded fast path (Shards == 1, not elastic): Plan,
	// Release, Prewarm and the residency queries delegate to it, and its
	// frame is the Manager's.
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
	// approx coordination (preMode restores on Heal); evac
	// totals host-evacuation activity and lastEvac the most recent
	// event's modeled recovery-transfer latency.
	degraded bool
	preMode  CoordMode
	evac     EvacStats
	lastEvac float64

	shards []shardState
	// stamp/next/prev are global per-slot arrays. A slot belongs to
	// exactly one shard at a time (the one whose ID occupies it), so
	// shard-parallel writes never alias; empty slots are touched only
	// by the serial coordinator. stamp[slot] is the global recency stamp
	// of the slot's last touch, the victim merge's key.
	stamp      []uint64
	next, prev []int32

	// stampClock is the global recency timeline: every touch gets the
	// next stamp, assigned deterministically by batch position so the
	// shard-parallel pass reproduces the serial touch order.
	stampClock uint64

	// The eviction-budget coordinator's primary capacity accounting:
	// freePrimaryTotal counts unused primary slots across all shards
	// (shards borrow from each other before anyone evicts, so eviction
	// starts exactly when the unsharded free list would run dry). The
	// reserve budget is the frame's.
	freePrimaryTotal int
	sweepArmed       bool

	// Scratch backing the Plan passes: shardOf routes each uniq position
	// to its owner (read by the serial coordinator pass), uniqIdx/winIdx
	// bucket the batch and look-ahead-window positions per shard so each
	// shard's parallel pass walks only its own share (O(batch+window)
	// total routing work instead of S skip-scans), winIDs is the
	// flattened window.
	shardOf []uint16
	uniqIdx [][]int32
	winIdx  [][]int32
	winIDs  []int64
	missIdx []int32
	// in holds the inputs of the shard fan-out in progress (see fanIn).
	in fanIn
}

// fanIn carries one call's inputs to the shard fan-out bodies, the
// planShard and releaseShard methods. The caller fills it before
// par.Each runs the body on every shard, and the shards only read it, so
// the fan-out builds no closure and a warm Plan/Release cycle allocates
// nothing.
type fanIn struct {
	// The Plan pass: the batch, its occurrence counts (nil: one each),
	// the result being filled, where hints start in winIDs, and the
	// stamp clock before the batch's touches.
	uniq      []int64
	counts    []int32
	res       *core.PlanResult
	hintOff   int
	stampBase uint64
	// relSeq is the batch the Release pass retires.
	relSeq int
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
// shape it is the frame, the touch stamps and recency links, each
// shard's Hit-Map, free list and hold ring, the routing scratch, and the
// coordination meter with its message plane. Batches still in flight
// are dropped (their hold sets return to the pools). On error m is
// unchanged.
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
		*m = Manager{Frame: &sp.Frame, nshards: 1, pool: cfg.Pool, mode: mode, quantum: 1, single: sp}
		return nil
	}
	total := c.Slots + c.Reserve
	// Carry the buffers over (the frame too, unless it was the dropped
	// delegate's); every other field takes its zero value, as in a fresh
	// manager.
	old := *m
	frame := old.Frame
	if frame == nil || old.single != nil {
		frame = &core.Frame{}
	}
	frame.ResetFrame(c)
	*m = Manager{
		Frame:   frame,
		nshards: n,
		pool:    cfg.Pool,
		place:   cfg.Placement,
		coord:   old.coord.reset(cfg.Placement, n, mode),
		mode:    mode,
		quantum: 1,
		pollK:   1,
		elastic: cfg.Elastic,
		shards:  slices.Grow(old.shards[:0], n)[:n],
		stamp:   zeroed(old.stamp, total),
		next:    zeroed(old.next, total),
		prev:    zeroed(old.prev, total),
		shardOf: old.shardOf,
		uniqIdx: slices.Grow(old.uniqIdx[:0], n)[:n],
		winIdx:  slices.Grow(old.winIdx[:0], n)[:n],
		winIDs:  old.winIDs[:0],
		missIdx: old.missIdx[:0],
	}
	if cfg.LoadProbe {
		m.loadProbe = zeroed(old.loadProbe, LoadProbeBuckets)
	}
	if mode == CoordApprox {
		m.quantum = approxQuantum
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
	return nil
}

// reset empties the shard into its freshly built state — an empty
// Hit-Map sized for hint entries, empty recency and free lists, nothing
// in flight or parked — keeping its buffers and returning its in-flight
// hold sets to the pool.
func (sh *shardState) reset(hint int) {
	sh.inFlight.Clear()
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

// ShardStats is one shard's balance snapshot.
type ShardStats struct {
	// Queries/Hits are occurrence-level counters over planned batches.
	Queries, Hits int64
	// Resident is the shard's current Hit-Map population.
	Resident int
}

// ShardStats returns per-shard balance counters (one entry per shard;
// a single-shard manager reports its aggregate as shard 0).
func (m *Manager) ShardStats() []ShardStats {
	if m.single != nil {
		st := m.Stats()
		return []ShardStats{{Queries: st.Queries, Hits: st.Hits, Resident: m.Len()}}
	}
	out := make([]ShardStats, m.nshards)
	for j := range m.shards {
		sh := &m.shards[j]
		out[j] = ShardStats{Queries: sh.queries, Hits: sh.hits, Resident: sh.hitMap.Len()}
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
	m.stamp[slot] = stamp
}

// --- eviction coordination ---------------------------------------------

// armSweep resets every shard's sweep cursor to its least-recent end
// and flushes the parked candidate batches (a re-arm changes the
// evictability predicate, so gathered candidates are stale and the next
// consultation re-polls). Mirrors BeginVictimSweep: within one Plan no
// slot can *become* evictable, so skipped slots are never revisited
// until a re-arm. hide makes the sweep's first poll round hidden (see
// armFirstSweep).
func (m *Manager) armSweep(hide bool) {
	for j := range m.shards {
		sh := &m.shards[j]
		sh.sweepCur = sh.lruHead
		sh.candQ = sh.candQ[:0]
		sh.candHead = 0
		sh.candDone = false
	}
	if m.coord != nil {
		m.coord.beginSweep(hide)
	}
}

// shardCand returns shard j's next parked evictable candidate, polling
// the shard to refill its candidate batch when the parked ones are
// consumed; nilSlot when the shard's eviction order is exhausted for
// this sweep. One poll round gathers up to pollK candidates in recency
// order (1 in exact mode — the PR 3 protocol — or the Plan's whole miss
// budget in hier and approx, so a single round per shard covers the
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
	// A poll parks at most pollK candidates.
	sh.candQ = slices.Grow(sh.candQ[:0], m.pollK)
	sh.candHead = 0
	cur := sh.sweepCur
	for cur != nilSlot && len(sh.candQ) < m.pollK {
		nxt := m.next[cur]
		if m.Evictable(cur) {
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
// order), which is exactly where its divergence from exact comes from.
func (m *Manager) olderStamp(a, b int32) bool {
	if m.quantum > 1 {
		return m.stamp[a]/m.quantum < m.stamp[b]/m.quantum
	}
	return m.stamp[a] < m.stamp[b]
}

// victim k-way-merges the shard candidate batches by touch stamp and
// consumes the globally least-recently-used evictable slot — exactly the
// slot the unsharded planner's single LRU sweep would pick (up to
// quantization in approx mode). Returns the slot and its owning shard,
// or (-1, -1) when every shard is exhausted.
func (m *Manager) victim() (int32, int) {
	best, bestShard := nilSlot, -1
	for j := 0; j < m.nshards; j++ {
		c := m.shardCand(j)
		if c < 0 {
			continue
		}
		if best < 0 || m.olderStamp(c, best) {
			best, bestShard = c, j
		}
	}
	if m.coord != nil && m.coord.hidden {
		// A hidden round is exactly these polls, one per shard; the
		// confirm below and every later poll are critical.
		m.coord.hidden = false
		if m.onHiddenRound != nil {
			m.onHiddenRound()
		}
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

// put moves id (owned by shard j) into slot: Hit-Map entry, recency
// stamp and list position.
func (m *Manager) put(j int, id int64, slot int32) {
	m.Insert(m.shards[j].hitMap, id, slot)
	m.stampClock++
	m.stamp[slot] = m.stampClock
	m.pushMRU(j, slot)
}

// --- plan lifecycle ----------------------------------------------------

// Plan runs the [Plan] stage for one mini-batch (see core.Scratchpad.Plan).
func (m *Manager) Plan(seq int, ids []int64, future [][]int64) (*core.PlanResult, error) {
	return m.PlanWithHints(seq, ids, future, nil)
}

// PlanWithHints is Plan with deep look-ahead eviction hints (see
// core.Scratchpad.PlanWithHints).
func (m *Manager) PlanWithHints(seq int, ids []int64, future, hints [][]int64) (*core.PlanResult, error) {
	uniq, cnt := m.Dedup(ids)
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
	res, futStart, err := m.BeginPlan(seq, future, hints)
	if err != nil {
		return nil, err
	}

	// Per-batch buffers regrow on append's amortized schedule (see
	// core.Scratchpad.PlanUniqueWithHints), so the warm Plan stops
	// allocating once the batch sizes have been sampled.
	res.UniqueIDs = append(slices.Grow(res.UniqueIDs, len(uniq)), uniq...)
	res.Slots = slices.Grow(res.Slots, len(uniq))[:len(uniq)]
	// Route the batch and the look-ahead window once, bucketing
	// positions per owning shard: the parallel pass below then walks
	// only each shard's own share (total routing work O(batch+window),
	// not S skip-scans). shardOf keeps the per-position owner for the
	// serial coordinator pass.
	m.shardOf = slices.Grow(m.shardOf[:0], len(uniq))
	shardOf := m.shardOf[:len(uniq)]
	fut := future[futStart:]
	nwin := 0
	for _, ids := range fut {
		nwin += len(ids)
	}
	for _, ids := range hints {
		nwin += len(ids)
	}
	// Any one shard may own the whole batch and window, so each bucket
	// grows once to those sizes and routing never reallocates.
	for j := range m.uniqIdx {
		m.uniqIdx[j] = slices.Grow(m.uniqIdx[j][:0], len(uniq))
		m.winIdx[j] = slices.Grow(m.winIdx[j][:0], nwin)
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
	winIDs := slices.Grow(m.winIDs[:0], nwin)
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

	// Shard-parallel pass (planShard, which cannot fail); m.in holds no
	// reference to the caller's batch once it returns.
	stampBase := m.stampClock
	m.in = fanIn{uniq: uniq, counts: counts, res: res, hintOff: hintOff, stampBase: stampBase}
	_ = par.Each(m.pool, m.nshards, m, (*Manager).planShard)
	m.in = fanIn{}
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
		// shard in exact, aggregated through the host tier in hier, and
		// not at all in approx (quantized epochs need no global clock;
		// co-located endpoints are always free).
		m.coord.meterStampSync()
	}

	// Collect the misses in first-appearance order (the order the
	// coordinator must allocate them in to match the serial planner).
	missIdx := slices.Grow(m.missIdx[:0], len(uniq))
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

	res.Fills = slices.Grow(res.Fills, len(missIdx))
	res.Evictions = slices.Grow(res.Evictions, len(missIdx))

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
				m.armFirstSweep()
				m.sweepArmed = true
			}
			v, vsh := m.victim()
			if v < 0 && m.RelaxHints() {
				// Every unprotected slot is merely hinted: sweep once more.
				m.armSweep(false)
				v, vsh = m.victim()
			}
			if v >= 0 {
				m.unlink(vsh, v)
				res.Evictions = append(res.Evictions, core.Eviction{OldID: m.Evict(m.shards[vsh].hitMap, v), Slot: v})
				slot = v
				if m.coord != nil && vsh != j {
					// The victim's slot changes owners: transfer its
					// control metadata to the missing ID's shard
					// (immediately in exact mode, one aggregated round
					// per shard pair at Plan end otherwise).
					m.coord.meterSlotMove(vsh, j)
				}
			} else if slot, err = m.TakeReserve(res); err != nil {
				return nil, err
			}
		}
		m.put(j, id, slot)
		m.Hold(slot)
		m.shards[j].held = append(m.shards[j].held, slot)
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

	// An overlapped Plan that never swept had no round to hide.
	m.dropOverlap()
	if m.coord != nil {
		m.lastCoord = m.coord.finishPlan()
		m.lastCoordCrit = m.coord.lastCrit
		m.lastCoordWall = m.coord.lastWall
	} else {
		m.lastCoordCrit, m.lastCoordWall = 0, 0
	}

	m.EndPlan(res)
	return res, nil
}

// planShard is the Plan's shard-parallel pass for shard j, run by
// par.Each over the inputs in m.in: the shard pins its own future IDs,
// stamps its own hints, and classifies its own partition of the batch.
// Touch stamps are assigned by batch position (stampBase + i), so the
// shard-parallel pass reproduces the exact recency order the serial
// planner would produce; all writes go through slots owned by the
// executing shard, so the fan-out is race-free and bit-identical at any
// worker count.
func (m *Manager) planShard(j int) error {
	in := &m.in
	sh := &m.shards[j]
	for _, w := range m.winIdx[j] {
		if slot, ok := sh.hitMap.Get(m.winIDs[w]); ok {
			if int(w) < in.hintOff {
				m.Pin(slot)
			} else {
				m.Hint(slot)
			}
		}
	}
	// A hold set is the shard's own hits plus the misses it owns, so
	// its share of the batch bounds it: the coordinator's inserts never
	// grow it.
	held := sh.inFlight.Spare(len(m.uniqIdx[j]))
	occHits, occMisses := 0, 0
	for _, iPos := range m.uniqIdx[j] {
		i := int(iPos)
		id := in.uniq[i]
		c := 1
		if in.counts != nil {
			c = int(in.counts[i])
		}
		if slot, ok := sh.hitMap.Get(id); ok {
			occHits += c
			in.res.Slots[i] = slot
			m.touch(j, slot, in.stampBase+uint64(i)+1)
			m.Hold(slot)
			held = append(held, slot)
			continue
		}
		occMisses++
		occHits += c - 1
		in.res.Slots[i] = -1
	}
	sh.held = held
	sh.occHits, sh.occMisses = occHits, occMisses
	sh.queries += int64(occHits + occMisses)
	sh.hits += int64(occHits)
	return nil
}

// Release drops the oldest in-flight batch's holds on every shard (see
// core.Scratchpad.Release); shards release in parallel (releaseShard).
func (m *Manager) Release(seq int) error {
	if m.single != nil {
		return m.single.Release(seq)
	}
	m.in.relSeq = seq
	if err := par.Each(m.pool, m.nshards, m, (*Manager).releaseShard); err != nil {
		return err
	}
	m.EndRelease()
	return nil
}

// releaseShard is Release's pass for shard j, run by par.Each: it
// retires the shard's oldest hold set, which must be batch m.in.relSeq.
func (m *Manager) releaseShard(j int) error {
	return m.ReleaseBatch(&m.shards[j].inFlight, m.in.relSeq)
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
	// Prewarm inserts move recency lists and the stamp clock: an overlap
	// mark no longer describes the next Plan.
	m.dropOverlap()
	m.prewarming = true
	defer func() { m.prewarming = false }()
	return m.Warm((*warmer)(m), rows, sample, onFill)
}

// warmer is the Manager's side of core.Frame.Warm: draws route to their
// owning shard and borrow its free primary slots.
type warmer Manager

func (w *warmer) Free() bool { return w.freePrimaryTotal > 0 }

func (w *warmer) Cached(id int64) bool { return (*Manager)(w).Contains(id) }

func (w *warmer) Place(id int64) int32 {
	m := (*Manager)(w)
	j := m.shardFor(id)
	slot := m.borrowPrimary(j)
	m.put(j, id, slot)
	return slot
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
