// Failure reactions: what the sharded control plane does when the
// fleet under it breaks (hw.FaultPlan schedules the breakage; the
// engine walks the schedule and calls the methods here between Plans).
//
// Three reactions, one per fault family:
//
//   - Evacuate re-homes every shard whose host died onto the surviving
//     nodes, reusing the reshard machinery's migration pricing. A dead
//     host's scratchpad rows are gone: non-held resident entries drop
//     (their slots return to the free budget, so the lost residency is
//     repriced as the cold misses the next Plans will pay), while held
//     entries survive — an in-flight batch's rows are replicated in
//     the pipeline's staging buffers by construction, so re-installing
//     them is a priced control transfer, not a loss. Alternatively the
//     caller supplies a per-row restore size (checkpoint recovery) and
//     residency is preserved at bulk-transfer prices instead.
//   - Degrade/Heal bracket a link partition: while partitioned the
//     coordinator cannot sync stamps across the cut, so the manager
//     runs the approx protocol (epoch-quantized recency, no stamp
//     traffic). Heal restores the original protocol and prices one full
//     stamp re-synchronization.
//   - ReelectAggregator replaces a lost per-host aggregator (hier and
//     approx modes): the host's shards vote the next shard's node into
//     the role and announce it to the global coordinator, all priced
//     as ordinary coordination rounds (CoordStats.ReelectRounds).
//
// Like resharding, every reaction runs between Plans with batches in
// flight — the pipeline never drains.

package shard

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/hw"
)

// Re-election wire sizes (bytes): control-plane metadata, like every
// other coordination message.
const (
	// electVoteBytes is one shard's vote for the new aggregator
	// (term + candidate node).
	electVoteBytes = 16
	// electAnnounceBytes announces the election result to the global
	// coordinator.
	electAnnounceBytes = 16
)

// EvacStats totals a Manager's host-evacuation activity. Residency
// counters are entry-level; Bytes/Rounds/Seconds price only transfers
// that crossed a non-local, non-partitioned link, the same discipline
// as ReshardStats.
type EvacStats struct {
	// Events counts Evacuate calls that found at least one dead shard.
	Events int64
	// ShardsEvacuated counts shards re-homed off dead hosts.
	ShardsEvacuated int64
	// LostResident counts resident entries dropped with their host
	// (repriced as cold misses on the Plans that re-fetch them).
	LostResident int64
	// RestoredResident counts resident entries restored from a
	// checkpoint at bulk row-transfer prices instead of being dropped.
	RestoredResident int64
	// HeldKept counts in-flight-held entries that survived the death
	// (re-installed from pipeline staging buffers).
	HeldKept int64
	// FreeMoved / HoldsMoved count re-announced free-slot indices and
	// hold-ring entries for the evacuated shards.
	FreeMoved  int64
	HoldsMoved int64
	// Bytes / Rounds / Seconds are the recovery transfer totals on the
	// surviving links.
	Bytes   float64
	Rounds  int64
	Seconds float64
}

// Merge adds another manager's lifetime evacuation totals into s.
func (s *EvacStats) Merge(o EvacStats) {
	s.Events += o.Events
	s.ShardsEvacuated += o.ShardsEvacuated
	s.LostResident += o.LostResident
	s.RestoredResident += o.RestoredResident
	s.HeldKept += o.HeldKept
	s.FreeMoved += o.FreeMoved
	s.HoldsMoved += o.HoldsMoved
	s.Bytes += o.Bytes
	s.Rounds += o.Rounds
	s.Seconds += o.Seconds
}

// EvacStats returns the manager's lifetime evacuation totals (the zero
// value when no host ever died under it).
func (m *Manager) EvacStats() EvacStats { return m.evac }

// Degraded reports whether the manager is currently running the
// degraded (partition-mode) approx protocol.
func (m *Manager) Degraded() bool { return m.degraded }

// Evacuate re-homes the manager's shards after host deaths: place is
// the new assignment (every dead-host shard moved to a surviving node,
// typically from hw.EvacuatePlacement), hostDead the death predicate
// over the *old* placement's hosts. The shard count is unchanged —
// evacuation is the same-S corner of the reshard machinery, plus loss:
//
//   - Non-held resident entries of a dead shard drop. Their slots
//     return to the shard's primary free list (reserve slots to the
//     reserve stack), so the budget invariant holds and the loss is
//     repriced as the cold misses that refill them — no wire cost now,
//     paid in fill cycles later.
//   - Held entries survive (their rows are replicated in the
//     pipeline's in-flight staging buffers) and re-install on the new
//     node at control-transfer prices; hold rings migrate untouched,
//     so Release stays FIFO-valid and the pipeline never drains.
//   - When restoreRowBytes > 0 (checkpoint recovery), nothing drops:
//     every at-risk entry re-installs at restoreRowBytes per row —
//     residency (and therefore the future plan stream) is preserved,
//     and the recovery bill shifts from future misses to bulk
//     transfer now.
//
// Recovery transfers originate at the coordinator's new home (shard
// 0's node under place) and are priced on the surviving links like any
// reshard migration. Like Reshard, Evacuate requires the LRU policy.
func (m *Manager) Evacuate(place hw.Placement, hostDead func(host int) bool, restoreRowBytes float64) (EvacStats, error) {
	var st EvacStats
	if m.LRU() == nil {
		return st, fmt.Errorf("shard: Evacuate requires the %q policy (it walks the dead shards' recency lists), got %q",
			cache.LRU, m.Config().Policy)
	}
	// A death invalidates an overlap mark: the re-homed shards' state no
	// longer matches the look-ahead check.
	m.dropOverlap()
	if err := place.Validate(m.nshards); err != nil {
		return st, err
	}
	oldPlace := m.place
	if oldPlace.Topo != nil && place.Topo != nil && oldPlace.Topo != place.Topo {
		return st, fmt.Errorf("shard: Evacuate: old and new placements use different topologies (%q vs %q)",
			oldPlace.Topo.Name, place.Topo.Name)
	}
	topo := place.Topo
	if topo == nil {
		topo = oldPlace.Topo
	}
	if topo == nil {
		return st, fmt.Errorf("shard: Evacuate without a topology (nothing to die)")
	}
	acc := newMigAccum(topo)
	src := placeNode(place, 0)

	var drop []int32
	for j := range m.shards {
		oldNode := placeNode(oldPlace, j)
		if !hostDead(topo.Nodes[oldNode].Host) {
			continue
		}
		st.ShardsEvacuated++
		newNode := placeNode(place, j)
		sh := &m.shards[j]

		// The shard's recency list holds exactly its resident slots.
		drop = drop[:0]
		for slot := m.LRU().Front(j); slot != nilSlot; slot = m.LRU().Next(slot) {
			switch {
			case m.Held(slot):
				acc.move(src, newNode, true, 1, migResidentBytes, &st.HeldKept)
			case restoreRowBytes > 0:
				acc.move(src, newNode, true, 1, restoreRowBytes, &st.RestoredResident)
			default:
				drop = append(drop, slot)
			}
		}
		// Drop the lost entries in descending slot order so the freed
		// primary slots pop ascending — the fresh construction's
		// allocation direction, and a deterministic one.
		sort.Slice(drop, func(a, b int) bool { return drop[a] > drop[b] })
		for _, slot := range drop {
			m.Evict(&sh.Pad, slot)
			m.LRU().Remove(slot)
			if int(slot) < m.Capacity() {
				sh.FreePrimary = append(sh.FreePrimary, slot)
				m.freePrimaryTotal++
			} else {
				m.ReturnReserve(slot)
			}
		}
		st.LostResident += int64(len(drop))

		// Re-announce the evacuated shard's free-slot inventory and
		// hold ring to its new home.
		acc.move(src, newNode, true, int64(len(sh.FreePrimary)), migFreeSlotBytes, &st.FreeMoved)
		acc.move(src, newNode, true, holdCount(sh), migHoldBytes, &st.HoldsMoved)
	}

	if st.ShardsEvacuated == 0 {
		return st, nil
	}
	m.installPlacement(place, m.nshards)
	st.Events = 1
	st.Seconds, st.Rounds, st.Bytes = acc.price()
	m.evac.Merge(st)
	return st, nil
}

// Degrade switches a live manager to the partition-mode approx
// protocol: epoch-quantized recency and no stamp-sync traffic, because
// none can cross the cut. No-op for a manager already degraded and for
// native approx mode (which runs that protocol already). A single shard
// has no merge to quantize, so its plans do not change.
func (m *Manager) Degrade() {
	if m.degraded || m.mode == CoordApprox {
		return
	}
	m.dropOverlap()
	m.degraded = true
	m.preMode = m.mode
	m.mode, m.quantum = CoordApprox, approxQuantum
	if m.coord != nil {
		m.coord.mode = CoordApprox
	}
}

// Heal ends a Degrade: the original exact-order protocol and its raw
// stamp order come back, and the coordinator prices one full stamp re-synchronization (every
// remote shard uploads its current clock under the restored protocol's
// routing) so the global recency timeline is consistent again. Returns
// the re-sync's modeled seconds (the engine bills it to recovery).
func (m *Manager) Heal() float64 {
	if !m.degraded {
		return 0
	}
	m.dropOverlap()
	m.degraded = false
	m.mode, m.quantum = m.preMode, 1
	if m.coord == nil {
		return 0
	}
	m.coord.mode = m.preMode
	m.coord.meterStampSync()
	return m.coord.finishPlan()
}

// ReelectAggregator replaces host's lost coordination aggregator (the
// hier/approx host tier): the host's shards vote the next shard's node
// into the role, the winner announces itself to the global
// coordinator, and the aggregator mapping updates. Rounds and bytes
// are priced like any coordination traffic (CoordStats.ReelectRounds /
// ReelectBytes). Returns the election's modeled seconds; zero when the
// manager has no aggregator tier (exact mode, co-located
// placements) or no shards on that host.
func (m *Manager) ReelectAggregator(host int) float64 {
	if m.coord == nil || (m.mode != CoordHier && m.mode != CoordApprox) {
		return 0
	}
	// The election re-routes the host tier the hidden round's polls
	// would take.
	m.dropOverlap()
	return m.coord.reelect(host)
}

// reelect runs one priced re-election round for the topology host's
// aggregator.
func (c *coordMeter) reelect(topoHost int) float64 {
	h := -1
	for idx, agg := range c.aggNode {
		if c.place.Topo.Nodes[agg].Host == topoHost {
			h = idx
			break
		}
	}
	if h < 0 {
		return 0
	}
	// The host's shards in index order; the current aggregator is the
	// first's node, the successor the next shard's (wrapping — a
	// one-shard host re-elects the same node: the process restarts).
	first, next := -1, -1
	for j := range c.hostIdx {
		if c.hostIdx[j] != int32(h) {
			continue
		}
		if first < 0 {
			first = j
		} else if next < 0 {
			next = j
			break
		}
	}
	if first < 0 {
		return 0
	}
	if next < 0 {
		next = first
	}
	newAgg := c.nodeOf[next]
	for j := range c.hostIdx {
		if c.hostIdx[j] == int32(h) {
			c.addRound(c.nodeOf[j], newAgg, electVoteBytes, &c.stats.ReelectBytes, &c.stats.ReelectRounds)
		}
	}
	c.addRound(newAgg, c.coordNode, electAnnounceBytes, &c.stats.ReelectBytes, &c.stats.ReelectRounds)
	c.aggNode[h] = newAgg
	return c.finishPlan()
}
