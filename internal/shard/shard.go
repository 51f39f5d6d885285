// Package shard partitions one embedding table's scratchpad manager
// across S socket shards, the ROADMAP's multi-socket follow-on to the
// single-host parallel Plan path: the same scaling wall "Understanding
// Training Efficiency of DLRM at Scale" identifies once look-ahead
// planning saturates one socket's memory bandwidth.
//
// Each shard is a core.Pad owning a hash partition of the sparse-ID
// space — its own primary free list, hold ring and recency list — over
// the table's one Hit-Map in the embedded core.Frame. The per-occurrence
// work of the [Plan] stage (Hit-Map probes, recency touches, pin/hint
// stamping, hold registration) runs shard-parallel: the pass only reads
// the Hit-Map, and every slot is written only by the shard whose ID
// currently occupies it. What cannot be sharded without changing results
// is the eviction decision: the paper's replacement policy is a *global*
// LRU over the whole scratchpad, and splitting it into independent
// per-shard LRUs would change which rows stay resident. The Manager
// therefore runs a cross-shard eviction-budget coordinator: a global
// monotonic touch-stamp clock orders every shard's recency list on one
// timeline, primary and reserve capacity are global budgets (shards
// borrow free slots from each other before anyone evicts), and victim
// selection k-way-merges the shard cursors by stamp — which reproduces
// a single shard's eviction sequence exactly. Sharding is thus a pure
// decomposition: plans, eviction victims, and aggregate statistics are
// the same at every shard count (the equivalence tests in this package
// hold every shard count, plan by plan, to an independent reference of
// the paper's Plan rule).
//
// The Hit-Map, the slot discipline, the replacement policy (one LRU list
// per shard) and the per-pad Plan pass live once, in the embedded
// core.Frame; this package adds routing, touch stamps, borrowing, the
// k-way victim merge, the coordination meter, resharding and evacuation,
// and runs the one miss loop and the one Prewarm at every shard count.
// A single-shard Manager skips routing, stamps and the merge: its victims
// come straight from the frame's policy sweep, under every replacement
// policy. Shards > 1 requires the LRU policy: the stamp-merge
// coordinator is the distributed form of the LRU eviction order
// specifically.
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
// Nothing above requires the partitioning to be static: any LRU manager
// can change its shard count between Plans via [Manager.Reshard] —
// growing or shrinking a live run, moving every resident entry's
// ownership, free list, hold ring, and recency list to the new hash
// partitioning without losing a cached row, and pricing the migrated
// control bytes on the same topology links (reshard.go; DESIGN.md §9).
package shard

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
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

// shardState is one socket shard: its pad plus the victim sweep's
// per-shard state — the cursor on its recency list, the parked evictable
// candidates candQ[candHead:] (in recency order) from the latest poll,
// and whether its eviction order is exhausted for this sweep.
type shardState struct {
	core.Pad
	sweepCur int32
	candQ    []int32
	candHead int
	candDone bool
}

// nilSlot is the "no candidate" sentinel of the victim sweep.
const nilSlot = int32(-1)

// Manager is the per-table scratchpad control plane, the one planner
// type: the Plan/Release/Recycle/Prewarm lifecycle, with identical plans
// and statistics at every shard count. The slot
// discipline and the recency lists are its embedded core.Frame, and each
// shard is a core.Pad on it; the Manager adds routing, the touch stamps,
// borrowing, the k-way victim merge, the coordination meter, resharding
// and evacuation.
type Manager struct {
	core.Frame
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

	// Resharding state (see reshard.go): resharding tracks the lifetime
	// migration totals and lastReshard the most recent event's modeled
	// latency.
	resharding  ReshardStats
	lastReshard float64

	// Failure state (see failure.go): degraded marks partition-mode
	// approx coordination (preMode restores on Heal); evac totals
	// host-evacuation activity.
	degraded bool
	preMode  CoordMode
	evac     EvacStats

	shards []shardState
	// stamp[slot] is the stamp of the slot's last touch on stampClock,
	// the global recency timeline, and the victim merge's key (unused by
	// a solo manager, which has no merge; a reshard up from one shard
	// stamps the residents in recency order).
	stamp      []uint64
	stampClock uint64

	// freePrimaryTotal counts unused primary slots across all shards
	// (shards borrow from each other before anyone evicts, so eviction
	// starts exactly when a single free list would run dry; a reshard
	// recounts it). The reserve budget is the frame's. sweepArmed marks
	// the Plan's victim sweep armed.
	freePrimaryTotal int
	sweepArmed       bool

	// rt is the Plan's routing scratch (see route). batch and relSeq
	// carry one call's inputs to the shard fan-out bodies, planShard and
	// releaseShard: the caller sets them before par.Each runs the body on
	// every shard, and the shards only read them, so the fan-out builds
	// no closure and a warm Plan/Release cycle allocates nothing.
	rt     routing
	batch  core.Batch
	relSeq int
}

// routing is the Plan's routing scratch: each batch position's owner,
// the batch positions and window IDs bucketed per shard, and the window
// buckets' buffers and counting-sort scratch.
type routing struct {
	shardOf         []uint16
	uniqIdx         [][]int32
	pins, hints     [][]int64
	pinBuf, hintBuf []int64
	owner           []uint16
	count           []int
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
// manager's. It keeps the capacity of every buffer (the frame, the pads,
// the stamps, the routing scratch, the meter and its message plane) and
// the pools of recycled plans and hold sets, which is what makes a reset
// cheaper than a rebuild. Batches still in flight are dropped (their
// hold sets return to the pools). On error m is unchanged.
func (m *Manager) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := max(cfg.Shards, 1)
	mode, _ := ParseCoordMode(string(cfg.Coord)) // validated above
	c := cfg.Scratchpad
	if err := m.ResetFrame(c, n); err != nil {
		return err
	}
	// Carry the buffers over; every other field takes its zero value, as
	// in a fresh manager.
	old := *m
	*m = Manager{
		Frame:   old.Frame,
		nshards: n,
		pool:    cfg.Pool,
		place:   cfg.Placement,
		coord:   old.coord.reset(cfg.Placement, n, mode),
		mode:    mode,
		quantum: 1,
		pollK:   1,
		shards:  slices.Grow(old.shards[:0], n)[:n],
		rt:      old.rt,
	}
	if !m.solo() {
		m.stamp = zeroed(old.stamp, c.Slots+c.Reserve)
	}
	if mode == CoordApprox {
		m.quantum = approxQuantum
	}
	// Stripe the primary slots across shards (slot s starts on shard
	// s % n), matching the unsharded free list's allocation direction.
	for j := range m.shards {
		sh := &m.shards[j]
		sh.Pad.Reset(c, j, n)
		*sh = shardState{Pad: sh.Pad, candQ: sh.candQ[:0]}
	}
	m.freePrimaryTotal = c.Slots
	return nil
}

// solo reports whether m has a single shard: no routing, no touch stamps,
// no coordinator, and victims from the frame's policy sweep.
func (m *Manager) solo() bool { return m.nshards == 1 }

// Shards returns the shard count.
func (m *Manager) Shards() int { return m.nshards }

// Placement returns the shard-to-node assignment (zero value when
// co-located).
func (m *Manager) Placement() hw.Placement { return m.place }

// LastPlanCoord returns the modeled cross-node coordination latency
// (seconds) of the most recent Plan: zero for co-located placements and
// a single shard.
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

// ShardStats is one shard's balance snapshot.
type ShardStats struct {
	// Queries/Hits are occurrence-level counters over planned batches.
	Queries, Hits int64
	// Resident is the number of resident rows the shard owns.
	Resident int
}

// ShardStats returns per-shard balance counters (one entry per shard).
func (m *Manager) ShardStats() []ShardStats {
	out := make([]ShardStats, m.nshards)
	for j := range m.shards {
		sh := &m.shards[j]
		out[j] = ShardStats{Queries: sh.Queries, Hits: sh.Hits, Resident: sh.Resident}
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

// --- eviction coordination ---------------------------------------------

// armSweep resets every shard's sweep cursor to its least-recent end
// and flushes the parked candidate batches (a re-arm changes the
// evictability predicate, so gathered candidates are stale and the next
// consultation re-polls). Mirrors BeginVictimSweep, which is what a solo
// manager arms: within one Plan no slot can *become* evictable, so
// skipped slots are never revisited until a re-arm. hide makes the
// sweep's first poll round hidden (see armFirstSweep).
func (m *Manager) armSweep(hide bool) {
	if m.solo() {
		m.ArmSweep()
		return
	}
	for j := range m.shards {
		sh := &m.shards[j]
		sh.sweepCur = m.LRU().Front(j)
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
// order (1 in exact mode, or the Plan's whole miss budget in hier and
// approx, so a single round per shard covers the sweep); parked
// candidates cost nothing to re-compare, and a batch is invalidated only
// by a sweep re-arm.
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
		if m.Evictable(cur) {
			sh.candQ = append(sh.candQ, cur)
		}
		cur = m.LRU().Next(cur)
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
		// no follow-up empty poll is needed. (In exact mode exhaustion is
		// discovered by one final empty poll.)
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
// slot one LRU sweep over the whole scratchpad would pick (up to
// quantization in approx mode). Returns the slot and its owning shard,
// or (-1, -1) when every shard is exhausted. A solo manager takes the
// frame's policy sweep instead.
func (m *Manager) victim() (int32, int) {
	if m.solo() {
		return m.Victim(), 0
	}
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
// eviction onset identical to a single shard's. meter charges a
// borrow's round trip to the coordination meter.
func (m *Manager) borrowPrimary(j int, meter bool) int32 {
	sh := &m.shards[j]
	if len(sh.FreePrimary) == 0 {
		donor, max := -1, 0
		for k := range m.shards {
			if l := len(m.shards[k].FreePrimary); l > max {
				donor, max = k, l
			}
		}
		if donor < 0 {
			return nilSlot
		}
		if m.coord != nil && donor != j && meter {
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
	m.freePrimaryTotal--
	return sh.PopFree()
}

// stampNext stamps slot with the next tick of the global recency clock
// (a no-op in a solo manager, which keeps no stamps).
func (m *Manager) stampNext(slot int32) {
	if m.solo() {
		return
	}
	m.stampClock++
	m.stamp[slot] = m.stampClock
}

// --- plan lifecycle ----------------------------------------------------

// Plan runs the [Plan] stage for one mini-batch: queries the Hit-Map,
// assigns slots to missed IDs by evicting unprotected victims (or drawing
// on free/reserve slots), and registers the batch's holds. future holds
// the sparse IDs of the next FutureWindow mini-batches (outer index:
// distance ahead); their currently-cached slots are pinned against
// eviction for the duration of this call, which removes RAW-4 exactly as
// §IV-C prescribes.
//
// Plan fails only when slots+reserve cannot accommodate the window's
// worst-case working set; size Reserve with core.WorstCaseReserve to make
// that impossible.
func (m *Manager) Plan(seq int, ids []int64, future [][]int64) (*core.PlanResult, error) {
	return m.PlanWithHints(seq, ids, future, nil)
}

// PlanWithHints is Plan with deep look-ahead: hints carries the sparse
// IDs of batches *beyond* the hazard window (distance > FutureWindow).
// Hinted rows are demoted, not protected: victim selection prefers
// unhinted slots and falls back to hinted ones only when nothing else is
// evictable, so safety is unchanged while soon-to-be-reused rows tend to
// stay resident.
//
// ids is the batch's occurrence stream; it is deduplicated into reusable
// scratch and handed to PlanUniqueWithHints, which produces an identical
// result. Callers that already hold the batch's distinct IDs and counts
// (the dataset records them once per batch) should call
// PlanUniqueWithHints directly and skip the extra pass.
func (m *Manager) PlanWithHints(seq int, ids []int64, future, hints [][]int64) (*core.PlanResult, error) {
	// Reject a bad ID before deduplication, which cannot key a negative.
	for _, id := range ids {
		if err := m.CheckID(id); err != nil {
			return nil, fmt.Errorf("shard: plan %d: %w", seq, err)
		}
	}
	uniq, cnt := m.Dedup(ids)
	return m.PlanUniqueWithHints(seq, uniq, cnt, future, hints)
}

// PlanUniqueWithHints is the planner's native form: uniq lists the
// batch's distinct sparse IDs in first-appearance order and counts their
// per-ID occurrence multiplicities (counts may be nil, meaning one
// occurrence each). future and hints may carry either occurrence or
// distinct ID lists — pinning is idempotent — but distinct lists probe
// proportionally less. The per-pad pass — pin/hint stamping, Hit-Map
// probes, recency touches, hold registration — fans out across shards
// (a solo manager runs it once over the whole batch, unrouted and
// unstamped); the miss loop then allocates the misses serially in
// first-appearance order, the same loop at every shard count.
func (m *Manager) PlanUniqueWithHints(seq int, uniq []int64, counts []int32, future, hints [][]int64) (*core.PlanResult, error) {
	res, futStart, err := m.BeginPlan(seq, uniq, future, hints)
	if err != nil {
		return nil, err
	}
	m.batch = core.Batch{Uniq: uniq, Counts: counts, Res: res}
	var shardOf []uint16
	if m.solo() {
		m.PlanPad(&m.shards[0].Pad, &m.batch, nil, future[futStart:], hints)
	} else {
		shardOf = m.route(uniq, future[futStart:], hints)
		// Shard-parallel pass (planShard, which cannot fail). Touch
		// stamps follow batch position, reproducing one recency list's
		// order.
		m.batch.Stamps, m.batch.Base = m.stamp, m.stampClock
		_ = par.Each(m.pool, m.nshards, m, (*Manager).planShard)
		m.stampClock += uint64(len(uniq))
	}
	m.batch = core.Batch{} // drop the caller's batch
	for j := range m.shards {
		res.OccHits += m.shards[j].OccHits
		res.OccMisses += m.shards[j].OccMisses
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

	// The misses in first-appearance order (the order Algorithm 1
	// allocates them in).
	missIdx := m.Misses(res)

	// Size the candidate batches from the Plan's miss budget: at most
	// len(missIdx) victims can be needed, so one batched poll round per
	// shard always covers the sweep. Exact mode polls one at a time.
	m.pollK = 1
	if m.mode != CoordExact && len(missIdx) > 1 {
		m.pollK = len(missIdx)
	}

	// The miss loop: free primary capacity (own stripe, then borrowed)
	// precedes eviction; victims come in global LRU order (the policy
	// sweep, or the cross-shard stamp merge); the reserve budget is the
	// last resort.
	m.sweepArmed = false
	for _, k := range missIdx {
		if err := m.CheckID(res.UniqueIDs[k]); err != nil {
			return nil, fmt.Errorf("shard: plan %d: %w", seq, err)
		}
		j := 0
		if shardOf != nil {
			j = int(shardOf[k])
		}
		slot := nilSlot
		if m.freePrimaryTotal > 0 {
			slot = m.borrowPrimary(j, true)
		}
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
				res.Evictions = append(res.Evictions, core.Eviction{OldID: m.Evict(&m.shards[vsh].Pad, v), Slot: v})
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
		// FillMiss's recency touch moves a victim onto shard j's list.
		m.FillMiss(&m.shards[j].Pad, res, k, slot)
		m.stampNext(slot)
	}
	for j := range m.shards {
		m.shards[j].Commit(seq)
	}

	// An overlapped Plan that never swept had no round to hide.
	m.dropOverlap()
	if m.coord != nil {
		m.lastCoord = m.coord.finishPlan()
		m.lastCoordCrit = m.coord.lastCrit
		m.lastCoordWall = m.coord.lastWall
	}

	m.EndPlan(res)
	return res, nil
}

// route buckets the batch positions and the window's IDs per owning
// shard, so each shard's parallel pass walks only its own share, and
// returns each position's owner for the serial coordinator pass. Any
// shard may own everything, so each bucket grows once to the full size.
func (m *Manager) route(uniq []int64, future, hints [][]int64) []uint16 {
	rt, n := &m.rt, m.nshards
	rt.uniqIdx = slices.Grow(rt.uniqIdx[:0], n)[:n]
	rt.pins = slices.Grow(rt.pins[:0], n)[:n]
	rt.hints = slices.Grow(rt.hints[:0], n)[:n]
	rt.count = slices.Grow(rt.count[:0], n)[:n]
	rt.shardOf = slices.Grow(rt.shardOf[:0], len(uniq))[:len(uniq)]
	for j := range rt.uniqIdx {
		rt.uniqIdx[j] = slices.Grow(rt.uniqIdx[j][:0], len(uniq))
	}
	for i, id := range uniq {
		j := m.shardFor(id)
		rt.shardOf[i] = uint16(j)
		rt.uniqIdx[j] = append(rt.uniqIdx[j], int32(i))
	}
	m.bucket(rt.pins, &rt.pinBuf, future)
	m.bucket(rt.hints, &rt.hintBuf, hints)
	return rt.shardOf
}

// bucket routes every ID of batches to its owning shard: dst[j] becomes
// shard j's IDs in window order, a slice of *buf. A counting sort, so
// the buckets together take one window's space, each buffer grown once.
func (m *Manager) bucket(dst [][]int64, buf *[]int64, batches [][]int64) {
	n := 0
	for _, ids := range batches {
		n += len(ids)
	}
	rt := &m.rt
	rt.owner = slices.Grow(rt.owner[:0], n)
	clear(rt.count)
	for _, ids := range batches {
		for _, id := range ids {
			j := m.shardFor(id)
			rt.owner = append(rt.owner, uint16(j))
			rt.count[j]++
		}
	}
	*buf = slices.Grow((*buf)[:0], n)
	at := 0
	for j, c := range rt.count {
		dst[j] = (*buf)[at : at : at+c]
		at += c
	}
	k := 0
	for _, ids := range batches {
		for _, id := range ids {
			dst[rt.owner[k]] = append(dst[rt.owner[k]], id)
			k++
		}
	}
}

// planShard is the Plan's shard-parallel pass for shard j, run by
// par.Each over the inputs in m.batch: core's per-pad pass over the shard's
// share of the window and the batch.
func (m *Manager) planShard(j int) error {
	m.PlanPad(&m.shards[j].Pad, &m.batch, m.rt.uniqIdx[j], m.rt.pins[j:j+1], m.rt.hints[j:j+1])
	return nil
}

// Release drops the oldest in-flight batch's holds on every shard. The
// engine calls it when that batch enters [Train]: from that point the
// batch's slots may be chosen as victims again (their eviction read
// would happen strictly after the training writes, per the pipeline's
// stage spacing). Shards release in parallel (releaseShard).
func (m *Manager) Release(seq int) error {
	m.relSeq = seq
	if err := par.Each(m.pool, m.nshards, m, (*Manager).releaseShard); err != nil {
		return err
	}
	m.EndRelease()
	return nil
}

// releaseShard is Release's pass for shard j, run by par.Each: it
// retires the shard's oldest hold set, which must be batch m.relSeq.
func (m *Manager) releaseShard(j int) error {
	return m.ReleaseBatch(&m.shards[j].Ring, m.relSeq)
}

// Prewarm fills the free capacity with IDs drawn from sample before
// training starts, approximating the steady-state content of an LRU
// cache under the trace's access distribution (the most recent distinct
// draws). onFill, when non-nil, is invoked for every inserted row so
// functional engines can copy the corresponding embedding values into
// the storage array. It returns the number of rows inserted.
//
// Prewarm draws at most 8x the nominal capacity: rows that have not
// appeared within that many draws are cold enough that their absence
// from the warm cache has negligible effect on measured hit rates, and
// an unbounded fill would degenerate into a coupon-collector walk over
// the distribution's long tail.
func (m *Manager) Prewarm(sample func() int64, onFill func(id int64, slot int32)) int {
	return m.PrewarmRows(0, sample, onFill)
}

// PrewarmRows is Prewarm for callers that know the sparse ID domain
// [0, rows): the Hit-Map is sized for it up front, so no insert grows it
// (rows <= 0 leaves it to grow). A draw already resident is skipped.
// Draw sequence, duplicate decisions, and the set of inserted rows are
// the same at every shard count; only the physical slot numbers differ.
// Each draw fills a free primary slot of its owning shard, borrowed when
// that shard's stripe has run dry. A draw outside the table's rows
// panics.
func (m *Manager) PrewarmRows(rows int64, sample func() int64, onFill func(id int64, slot int32)) int {
	m.GrowRows(rows)
	limit, draws := 8*m.Capacity()+100, 0
	return m.prewarm(func() (int64, bool) {
		for draws < limit {
			draws++
			id := sample()
			if err := m.CheckID(id); err != nil {
				panic("shard: prewarm: " + err.Error())
			}
			if !m.Contains(id) {
				return id, true
			}
		}
		return 0, false
	}, onFill)
}

// prewarm is the one Prewarm insertion loop: while a primary slot is
// free it inserts next's IDs, which must be in range and not resident,
// until next reports the stream spent.
func (m *Manager) prewarm(next func() (int64, bool), onFill func(id int64, slot int32)) int {
	if m.InFlight() != 0 {
		panic("shard: Prewarm with batches in flight")
	}
	// Prewarm inserts move recency lists and the stamp clock: an overlap
	// mark no longer describes the next Plan.
	m.dropOverlap()
	inserted := 0
	for m.freePrimaryTotal > 0 {
		id, ok := next()
		if !ok {
			break
		}
		j := m.shardFor(id)
		slot := m.borrowPrimary(j, false) // setup-time borrowing is not metered
		m.Put(&m.shards[j].Pad, id, slot)
		m.stampNext(slot)
		if onFill != nil {
			onFill(id, slot)
		}
		inserted++
	}
	return inserted
}
