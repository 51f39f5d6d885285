// Resharding: changing a live Manager's shard count between Plans, with
// the migrated state priced on the topology links the move crosses
// (DESIGN.md §9).
//
// The paper's ScratchPipe fixes the scratchpad partitioning for the
// life of a run, but a production fleet does not hold still: hosts
// join and leave, and query mass shifts between embedding tables, the
// dynamic resource churn Acun et al. ("Understanding Training
// Efficiency of DLRM at Scale") identify as the dominant fleet-scale
// effect. Reshard transitions a Manager from S to S' shards — grow or
// shrink — by re-partitioning every piece of per-shard control state
// under the new hash function:
//
//   - Resident entries: every resident (sparse ID, slot) pair moves to
//     shard ShardOf(id, S'). The Hit-Map is the frame's, one per table,
//     so no entry is re-inserted; only its owner's count changes.
//   - Recency state: resident slots are re-threaded onto the new
//     shards' LRU lists in global recency order, so the k-way victim
//     merge reproduces exactly the eviction sequence the old
//     partitioning (and a single shard) would have produced.
//   - Free lists: remaining never-used primary slots re-stripe as slot
//     s mod S', stacks refilled descending so pops ascend — the fresh
//     construction's allocation direction.
//   - Hold rings: every in-flight batch's hold set re-buckets by each
//     held slot's current key, preserving per-shard FIFO release order,
//     so resharding is legal even with batches in flight (a pipelined
//     engine does not drain).
//
// Physical slots never move: the scratchpad's storage rows are
// engine-side and slot-addressed, so only control metadata migrates.
// What IS priced is that metadata's journey: each item that leaves one
// placement node for another contributes its wire size to a per-link
// state-transfer message, and the event's latency is the sum over
// crossed non-local links of latency + bytes/bandwidth — the same
// pricing discipline as the coordination meter (coord.go). Co-located
// moves (same node, including the nil-topology case) are free, and a
// reshard to the same S is a priced no-op: no state is rebuilt, plans
// after the boundary are bit-identical, and only a placement change
// can make it cost anything.

package shard

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
)

// Migration wire sizes (bytes). Like the coordination message sizes in
// coord.go these are control-plane metadata, not embedding payloads:
// slots are global storage addresses, so a row's floats never travel on
// a reshard — only the bookkeeping that says who owns them.
const (
	// migHeaderBytes heads one state-transfer message per dirty
	// (source node, destination node) pair.
	migHeaderBytes = 16
	// migResidentBytes is one resident entry with its recency and pin
	// metadata: id 8 + slot 4 + touch stamp 8 + pin/hint 8.
	migResidentBytes = 28
	// migFreeSlotBytes hands one never-used primary slot index to its
	// new stripe owner.
	migFreeSlotBytes = 4
	// migHoldBytes is one in-flight hold-ring entry: seq 8 + slot 4.
	migHoldBytes = 12
)

// ReshardStats totals a Manager's resharding activity: how
// often it transitioned, how much control state re-bucketed, and what
// the node-crossing subset cost on the topology. Moved counters are
// partition-level (the item's owning shard or node changed); Bytes,
// Rounds, and Seconds cover only items that crossed a non-local link —
// co-located migration is free, exactly like co-located coordination.
type ReshardStats struct {
	// Events counts Reshard calls (including priced same-S no-ops).
	Events int64
	// ResidentMoved / FreeMoved / HoldsMoved count migrated resident
	// entries, re-striped free primary slots, and re-bucketed in-flight
	// hold-ring entries whose owning shard (or shard's node) changed.
	ResidentMoved int64
	FreeMoved     int64
	HoldsMoved    int64
	// Bytes is the total state-transfer payload that crossed non-local
	// links (including per-message headers); Rounds the number of
	// state-transfer messages (one per dirty node pair per event).
	Bytes  float64
	Rounds int64
	// Seconds is the total modeled migration latency charged on the
	// crossed links.
	Seconds float64
}

// Merge adds another manager's lifetime resharding totals into s (the
// engines sum per-table managers into one report).
func (s *ReshardStats) Merge(o ReshardStats) {
	s.Events += o.Events
	s.ResidentMoved += o.ResidentMoved
	s.FreeMoved += o.FreeMoved
	s.HoldsMoved += o.HoldsMoved
	s.Bytes += o.Bytes
	s.Rounds += o.Rounds
	s.Seconds += o.Seconds
}

// ReshardStats returns the manager's lifetime resharding totals (the
// zero value when no Reshard has run).
func (m *Manager) ReshardStats() ReshardStats { return m.resharding }

// LastReshardTime returns the modeled migration latency (seconds) of
// the most recent Reshard: zero for co-located moves.
func (m *Manager) LastReshardTime() float64 { return m.lastReshard }

// placeNode returns the topology node hosting shard j under placement
// p. A zero placement pins everything to node 0 — the coordinator's
// home — which is what prices a scale-out from a previously co-located
// (or S=1) configuration: the state leaves node 0 for the new shards'
// nodes.
func placeNode(p hw.Placement, j int) int32 {
	if p.Topo == nil || len(p.Node) == 0 {
		return 0
	}
	return int32(p.Node[j])
}

// linkUse records one dirty link of a reshard event: the flattened
// pair index plus the node pair itself (so pricing needs no reverse
// lookup).
type linkUse struct {
	idx  int32
	a, b int32
}

// migAccum accumulates one reshard event's state-transfer payload per
// dirty node pair (insertion-ordered so pricing sums floats
// deterministically, like msgplane.Plane.Serial's first-use order).
type migAccum struct {
	topo    *hw.Topology
	bytes   []float64
	touched []linkUse
}

func newMigAccum(topo *hw.Topology) *migAccum {
	a := &migAccum{topo: topo}
	if topo != nil {
		a.bytes = make([]float64, topo.NumLinkPairs())
	}
	return a
}

// move records n items of the given unit wire size migrating from one
// node to another, bumping the partition-level moved counter when the
// owning shard changed or the item crossed nodes. Same-node traffic is
// free (and, when the shard also kept its index, not a move at all).
func (a *migAccum) move(from, to int32, changedShard bool, n int64, unit float64, moved *int64) {
	if n == 0 {
		return
	}
	if from == to {
		if changedShard {
			*moved += n
		}
		return
	}
	*moved += n
	idx := int32(a.topo.PairIndex(int(from), int(to)))
	if a.bytes[idx] == 0 {
		a.touched = append(a.touched, linkUse{idx: idx, a: from, b: to})
	}
	a.bytes[idx] += unit * float64(n)
}

// price converts the accumulated per-link payloads into the event's
// modeled migration latency: one state-transfer message (header +
// payload) per dirty pair, latency + bytes/bandwidth per non-local
// link, summed (state transfers serialize through the coordinator,
// like the coordination rounds they generalize).
func (a *migAccum) price() (secs float64, rounds int64, bytes float64) {
	for _, u := range a.touched {
		l := a.topo.Link(int(u.a), int(u.b))
		if l.Tier == hw.TierLocal || l.Down {
			// Local transfers are free; a partitioned link carries no
			// migration (evacuation routes over the survivors).
			continue
		}
		payload := a.bytes[u.idx] + migHeaderBytes
		secs += l.Latency + payload/l.Bandwidth
		rounds++
		bytes += payload
	}
	return secs, rounds, bytes
}

// holdCount sums one shard's in-flight hold-ring entries.
func holdCount(sh *shardState) int64 {
	var n int64
	for k := 0; k < sh.Ring.Len(); k++ {
		n += int64(len(sh.Ring.At(k).Slots))
	}
	return n
}

// Reshard transitions the live manager from its current shard count to
// newS shards placed by place, between Plans (callers may have batches
// in flight: hold state migrates with everything else, so a pipelined
// engine does not drain). It migrates every resident entry, free list,
// hold ring, and recency list to the new hash partitioning without
// losing a single cached row, and prices the migrated control bytes on
// the topology links the move crosses (LastReshardTime / ReshardStats).
//
// Semantics preserved across the boundary (the reshard equivalence
// tests prove each):
//
//   - Residency: the (id, slot) map is identical before and after —
//     no row loss, no slot reassignment.
//   - Eviction order: recency re-threads in global recency order, so
//     future victims are exactly what the old partitioning (and a
//     single shard) would have chosen.
//   - Budgets: free primary / reserve totals and hold protection carry
//     over unchanged, so eviction onset and release behaviour do not
//     shift.
//   - Same-S: a reshard to the current S rebuilds nothing — plans after
//     the boundary are bit-identical, and only a placement change makes
//     the (still correctly priced) event cost bytes.
//
// The manager must run the LRU policy, and the old and new placements
// must share a topology when both are distributed; a zero old placement
// prices as "everything on node 0".
func (m *Manager) Reshard(newS int, place hw.Placement) error {
	if m.LRU() == nil {
		return fmt.Errorf("shard: Reshard requires the %q policy (migration re-threads LRU recency state), got %q",
			cache.LRU, m.Config().Policy)
	}
	if newS < 1 || newS > MaxShards {
		return fmt.Errorf("shard: Reshard to %d shards (want 1..%d)", newS, MaxShards)
	}
	if err := place.Validate(newS); err != nil {
		return err
	}
	// Migration re-partitions every list the look-ahead check read.
	m.dropOverlap()
	oldPlace := m.place
	if oldPlace.Topo != nil && place.Topo != nil && oldPlace.Topo != place.Topo {
		return fmt.Errorf("shard: Reshard: old and new placements use different topologies (%q vs %q)",
			oldPlace.Topo.Name, place.Topo.Name)
	}
	topo := place.Topo
	if topo == nil {
		topo = oldPlace.Topo
	}
	acc := newMigAccum(topo)
	oldN := m.nshards

	if newS == oldN {
		// Priced no-op: the hash partition is unchanged, so no state is
		// rebuilt and plans after the boundary are bit-identical. Each
		// shard whose node assignment changed still ships its whole
		// control state over the crossed link.
		for j := range m.shards {
			from, to := placeNode(oldPlace, j), placeNode(place, j)
			sh := &m.shards[j]
			acc.move(from, to, false, int64(sh.Resident), migResidentBytes, &m.resharding.ResidentMoved)
			acc.move(from, to, false, int64(len(sh.FreePrimary)), migFreeSlotBytes, &m.resharding.FreeMoved)
			acc.move(from, to, false, holdCount(sh), migHoldBytes, &m.resharding.HoldsMoved)
		}
		m.installPlacement(place, newS)
		m.finishReshard(acc)
		return nil
	}

	old := m.shards
	cfg := m.Config()

	// Resident slots in global recency order, least recent first, so
	// appending per new shard preserves each shard's LRU order.
	resident := make([]int32, 0, m.Len())
	if oldN == 1 {
		// A solo manager keeps no stamps, and its one list is that
		// order: stamp the residents 1..N along it. The exact-order
		// protocols compare only stamp order, so their plans cannot move.
		for s := m.LRU().Front(0); s != nilSlot; s = m.LRU().Next(s) {
			resident = append(resident, s)
		}
		m.stamp = zeroed(m.stamp, m.TotalSlots())
		for k, s := range resident {
			m.stamp[s] = uint64(k + 1)
		}
		m.stampClock = uint64(len(resident))
	} else {
		// Touch stamps are unique (one clock tick per touch), so they
		// sort into the exact global recency timeline.
		for s := int32(0); s < int32(m.TotalSlots()); s++ {
			if m.Key(s) >= 0 {
				resident = append(resident, s)
			}
		}
		sort.Slice(resident, func(a, b int) bool { return m.stamp[resident[a]] < m.stamp[resident[b]] })
	}

	// Record each free primary slot's current owner before the old
	// shards are torn down (borrowing drifts slots off their stripe, so
	// the owner is wherever the slot sits now).
	freeShard := slices.Repeat([]int32{-1}, cfg.Slots)
	for j := range old {
		for _, s := range old[j].FreePrimary {
			freeShard[s] = int32(j)
		}
	}

	shards := make([]shardState, newS)
	for j := range shards {
		shards[j].List = j
	}
	m.shards = shards
	m.nshards = newS

	// Recency lists and resident counts; the Hit-Map is the frame's and
	// stays as it is.
	m.LRU().ResetLists(m.TotalSlots(), newS)
	for _, slot := range resident {
		id := m.Key(slot)
		oldJ := ShardOf(id, oldN)
		newJ := ShardOf(id, newS)
		m.LRU().Touch(newJ, slot)
		shards[newJ].Resident++
		acc.move(placeNode(oldPlace, oldJ), placeNode(place, newJ), oldJ != newJ,
			1, migResidentBytes, &m.resharding.ResidentMoved)
	}

	// Free primary re-striping: slot s belongs to shard s mod S',
	// stacks filled descending so pops ascend — fresh-construction
	// allocation order. The global budget (freePrimaryTotal) is
	// recounted, not changed, so eviction onset cannot shift.
	m.freePrimaryTotal = 0
	for s := cfg.Slots - 1; s >= 0; s-- {
		oldJ := freeShard[s]
		if oldJ < 0 {
			continue
		}
		j := s % newS
		shards[j].FreePrimary = append(shards[j].FreePrimary, int32(s))
		m.freePrimaryTotal++
		acc.move(placeNode(oldPlace, int(oldJ)), placeNode(place, j), int(oldJ) != j,
			1, migFreeSlotBytes, &m.resharding.FreeMoved)
	}

	// Hold rings: every in-flight batch appears once on every shard
	// (possibly empty), in the same FIFO order; re-bucket each held
	// slot by its current key's new owner. Held slots cannot be evicted
	// while held, so the key is stable and the re-bucketing exact.
	depth := old[0].Ring.Len()
	newHeld := make([][]int32, newS)
	for k := 0; k < depth; k++ {
		seq := old[0].Ring.At(k).Seq
		for j := range newHeld {
			newHeld[j] = nil
		}
		for oj := range old {
			hb := old[oj].Ring.At(k)
			if hb.Seq != seq {
				return fmt.Errorf("shard: Reshard: in-flight ring skew (batch %d: seq %d vs %d)", k, hb.Seq, seq)
			}
			for _, slot := range hb.Slots {
				nj := ShardOf(m.Key(slot), newS)
				newHeld[nj] = append(newHeld[nj], slot)
				acc.move(placeNode(oldPlace, oj), placeNode(place, nj), oj != nj,
					1, migHoldBytes, &m.resharding.HoldsMoved)
			}
		}
		for j := range shards {
			shards[j].Ring.Push(core.HeldBatch{Seq: seq, Slots: newHeld[j]})
		}
	}

	m.installPlacement(place, newS)
	m.finishReshard(acc)
	return nil
}

// installPlacement swaps the placement and resets the coordination
// meter for the (possibly new) shard count, folding the retired meter's
// lifetime traffic into the carry-over so CoordStats stays a lifetime
// total across reshard events. No Plan has run under the new placement,
// so the last Plan's coordination figures start at zero (a solo or
// co-located manager never sets them).
func (m *Manager) installPlacement(place hw.Placement, shards int) {
	if m.coord != nil {
		m.coordBase.Merge(m.coord.stats)
	}
	m.place = place
	m.coord = m.coord.reset(place, shards, m.mode)
	m.lastCoord, m.lastCoordCrit, m.lastCoordWall = 0, 0, 0
}

// finishReshard prices the event and folds it into the lifetime totals.
func (m *Manager) finishReshard(acc *migAccum) {
	secs, rounds, bytes := acc.price()
	m.resharding.Events++
	m.resharding.Bytes += bytes
	m.resharding.Rounds += rounds
	m.resharding.Seconds += secs
	m.lastReshard = secs
}
