// Speculative coordination: resolving the next Plan's eviction
// candidates while the pipeline's Collect stage still runs.
//
// The engine's overlap window is the rest of the cycle after [Plan]
// returns: no stage before the next Plan touches the Manager except one
// possible Release (whose sequence number the engine knows in advance
// from the pipeline's occupancy). SpeculatePlan exploits that quiet
// window. Against a snapshot of the stamp clock it projects the
// Manager's state forward across that Release and the upcoming Plan's
// own touch/pin/hint passes, walks every shard's recency list with the
// projected evictability predicate — exactly the walk the Plan's first
// armed sweep would do — and parks the gathered candidate batches. The
// poll rounds this costs are staged on the coordination meter's side
// ledger (coord.go), priced later as the Plan's overlapped share.
//
// When the Plan arrives, its first armSweep becomes an adoption point:
// if every guard holds (same sequence, same stamp clock, exactly the
// projected Release happened, the miss budget matches the projection,
// no reshard/fault/prewarm invalidated the snapshot, and every parked
// candidate is still evictable under the live predicate), the parked
// batches are installed verbatim — the sweep starts with its polls
// already answered, and the staged rounds are adopted as hidden time.
// Otherwise the speculation rolls back: the ledger is discarded, the
// sweep re-polls critically, and the Plan is bit-identical (plans,
// victims, rounds, statistics) to one that never speculated. Rollback
// costs only the wasted background walk — no modeled seconds, no
// rounds, no statistics drift.
//
// The projection is exact, not heuristic: between SpeculatePlan and the
// Plan, holds only drop through the one projected Release, pins only
// expire through the pin epoch the projection already advanced, and
// recency only changes through touches the projection marked as held
// (a touched slot is hold-protected for the whole Plan). Any event
// outside that closed set — reshard, evacuation, degrade/heal,
// re-election, prewarm — invalidates the speculation eagerly. The
// adoption guards are therefore a cross-check, not a filter: in an
// undisturbed run every speculation adopts.
package shard

import "slices"

// OverlapStats counts speculative-coordination outcomes over a
// Manager's lifetime.
type OverlapStats struct {
	// Speculated counts SpeculatePlan calls that staged candidates.
	Speculated int64
	// Adopted counts speculations a Plan consumed verbatim.
	Adopted int64
	// RolledBack counts speculations discarded — by a failed adoption
	// guard, by an invalidating event (reshard, fault, prewarm), or by
	// a Plan that never needed the sweep.
	RolledBack int64
}

// Merge adds another manager's lifetime outcomes into s.
func (s *OverlapStats) Merge(o OverlapStats) {
	s.Speculated += o.Speculated
	s.Adopted += o.Adopted
	s.RolledBack += o.RolledBack
}

// OverlapStats returns the manager's lifetime speculation outcomes (the
// zero value when nothing ever speculated).
func (m *Manager) OverlapStats() OverlapStats { return m.overlap }

// Projection overlay bits (specFlags, one per slot, sparse via
// specDirty).
const (
	specReleased uint8 = 1 << iota // holds will drop by one (projected Release)
	specHeld                       // the next Plan's batch hits it (holds will rise)
	specPinned                     // the next Plan's window pass will pin it
	specHinted                     // the next Plan's hint pass will stamp it
)

// specState parks one speculation between SpeculatePlan and the Plan
// that consumes it.
type specState struct {
	valid bool
	// Guards: the Plan must present the same sequence and batch size,
	// the stamp clock must not have moved, exactly the projected
	// Release (and no other) must have happened, the hint-relaxation
	// mode must match, and the live miss budget must equal the
	// projection.
	seq         int
	nuniq       int
	stampClock  uint64
	released    int64
	relSeq      int
	hintRelaxed bool
	projMisses  int
	pollK       int
	// Parked per-shard results of the projected first sweep: the
	// candidate batches, each shard's resume anchor (the last gathered
	// candidate — the live list's next pointer at adoption time is
	// exactly where the real walk would have stopped), whether the walk
	// exhausted the list, and the candDone flag the real poll would
	// have left.
	candQ    [][]int32
	lastCand []int32
	candDone []bool
}

// invalidateSpec discards any in-flight speculation (and its staged
// meter ledger). Every state mutation outside the projected closed set
// calls it: reshard, evacuation, degrade/heal, aggregator re-election,
// prewarm.
func (m *Manager) invalidateSpec() {
	if !m.spec.valid {
		return
	}
	m.spec.valid = false
	m.overlap.RolledBack++
	if m.coord != nil {
		m.coord.discardStaging()
	}
}

// SpeculatePlan projects the Manager's state across releaseSeq's
// Release and the upcoming Plan (seq, uniq, future, hints) — which must
// be the exact arguments the next PlanUniqueWithHints will receive —
// and parks the first victim sweep's candidate batches, staging their
// poll rounds as the Plan's overlapped coordination share. releaseSeq
// is the batch whose holds the engine will drop before the Plan (-1
// when none will be).
//
// The call is a no-op (nothing staged, nothing counted) when the
// manager cannot profit: the S=1 delegate, co-located placements
// (nothing to meter), degraded partition mode, or a Plan whose misses
// fit the free budget (no sweep, no polls to hide).
//
// The caller must guarantee exclusive access to the Manager for the
// duration of the call, exactly as for Plan — the engine runs it on a
// background goroutine joined before anything else touches the manager.
func (m *Manager) SpeculatePlan(seq int, uniq []int64, future, hints [][]int64, releaseSeq int) {
	// Stale speculation from a Plan that never consumed it cannot
	// accumulate: restage from scratch.
	m.invalidateSpec()
	if m.single != nil || m.coord == nil || m.degraded {
		return
	}
	sp := &m.spec

	// Projected Release: mark the slots whose last hold drops. The
	// engine's release is FIFO per shard, so the front hold set of
	// every shard must carry releaseSeq; anything else means the
	// projection cannot know the release's effect and the speculation
	// is abandoned before staging.
	m.specEnsure()
	dirty := m.specDirty[:0]
	mark := func(slot int32, bit uint8) []int32 {
		if m.specFlags[slot] == 0 {
			dirty = append(dirty, slot)
		}
		m.specFlags[slot] |= bit
		return dirty
	}
	defer func() {
		for _, s := range dirty {
			m.specFlags[s] = 0
		}
		m.specDirty = dirty[:0]
	}()
	if releaseSeq >= 0 {
		for j := range m.shards {
			sh := &m.shards[j]
			if sh.inFlight.Len() == 0 || sh.inFlight.Front().Seq != releaseSeq {
				return
			}
			for _, slot := range sh.inFlight.Front().Slots {
				if m.meta[slot].holds == 1 {
					dirty = mark(slot, specReleased)
				}
			}
		}
	}

	// Projected Plan passes: batch hits hold their slots, window hits
	// pin, hint hits stamp. Misses are counted on the way (residency
	// cannot change before the Plan — the guards prove it didn't).
	projMisses := 0
	for _, id := range uniq {
		if slot, ok := m.shards[m.shardFor(id)].hitMap.Get(id); ok {
			dirty = mark(slot, specHeld)
		} else {
			projMisses++
		}
	}
	if projMisses <= m.freePrimaryTotal {
		// The free budget covers the misses: the Plan will not sweep,
		// so there are no polls to hide.
		return
	}
	// futStart replicates the Plan's pin-window trim (the prefix
	// already pinned by earlier Plans' deeper look-ahead).
	futStart := 0
	if m.pinValid > 1 && m.havePinned {
		if futStart = m.lastPinnedSeq - seq; futStart < 0 {
			futStart = 0
		} else if futStart > len(future) {
			futStart = len(future)
		}
	}
	for _, fids := range future[futStart:] {
		for _, id := range fids {
			if slot, ok := m.shards[m.shardFor(id)].hitMap.Get(id); ok {
				dirty = mark(slot, specPinned)
			}
		}
	}
	hintRelaxed := len(hints) == 0
	if !hintRelaxed {
		for _, hids := range hints {
			for _, id := range hids {
				if slot, ok := m.shards[m.shardFor(id)].hitMap.Get(id); ok {
					dirty = mark(slot, specHinted)
				}
			}
		}
	}

	sp.seq = seq
	sp.nuniq = len(uniq)
	sp.stampClock = m.stampClock
	sp.released = m.stats.Released
	sp.relSeq = releaseSeq
	sp.hintRelaxed = hintRelaxed
	sp.projMisses = projMisses
	sp.pollK = 1
	if m.mode != CoordExact && projMisses > 1 {
		sp.pollK = projMisses
	}

	// The projected first sweep: walk every shard's recency list under
	// the projected predicate, in the k-way merge's poll order, staging
	// the poll rounds on the side ledger. This is the identical walk —
	// candidates, order, counts, metering — the Plan's first armSweep
	// would run.
	if sp.candQ == nil {
		sp.candQ = make([][]int32, 0, m.nshards)
	}
	sp.candQ = sp.candQ[:0]
	sp.lastCand = sp.lastCand[:0]
	sp.candDone = sp.candDone[:0]
	m.coord.beginStaging()
	for j := range m.shards {
		var q []int32
		if n := len(sp.candQ); n < cap(sp.candQ) {
			q = sp.candQ[:n+1][n][:0]
		}
		q = slices.Grow(q, sp.pollK)
		cur := m.shards[j].lruHead
		for cur != nilSlot && len(q) < sp.pollK {
			nxt := m.next[cur]
			if m.specEvictable(cur) {
				q = append(q, cur)
			}
			cur = nxt
		}
		m.coord.meterPoll(j, len(q))
		last, done := nilSlot, false
		if n := len(q); n > 0 {
			last = q[n-1]
		}
		if len(q) == 0 {
			done = true
		} else if cur == nilSlot && m.mode != CoordExact {
			done = true
		}
		exhausted := cur == nilSlot
		if exhausted {
			last = nilSlot
		}
		sp.candQ = append(sp.candQ[:len(sp.candQ)], q)
		sp.lastCand = append(sp.lastCand, last)
		sp.candDone = append(sp.candDone, done)
	}
	m.coord.endStaging()
	sp.valid = true
	m.overlap.Speculated++
}

// specEnsure sizes the projection overlay.
func (m *Manager) specEnsure() {
	if len(m.specFlags) < m.TotalSlots() {
		m.specFlags = make([]uint8, m.TotalSlots())
	}
}

// specEvictable is isEvictable under the projection overlay: holds
// adjusted by the projected Release and the next Plan's touches, pins
// and hints advanced to the next Plan's epoch.
func (m *Manager) specEvictable(slot int32) bool {
	sm := &m.meta[slot]
	f := m.specFlags[slot]
	if f&specHeld != 0 {
		return false
	}
	h := sm.holds
	if f&specReleased != 0 {
		h--
	}
	if h != 0 || sm.key < 0 {
		return false
	}
	// The Plan will run at pinEpoch+1; a projected window pin lands at
	// exactly that epoch, so it always protects.
	if f&specPinned != 0 {
		return false
	}
	if sm.pinStamp > m.pinEpoch+1-m.pinValid {
		return false
	}
	return m.spec.hintRelaxed || f&specHinted == 0
}

// adoptSpec is the Plan's adoption point, called in place of the first
// armSweep. It validates the speculation against the live state and
// either installs the parked candidate batches (returning true — the
// sweep starts answered, the staged rounds become the Plan's overlapped
// share) or rolls the speculation back (returning false — the caller
// arms a critical sweep, bit-identical to a run that never speculated).
func (m *Manager) adoptSpec(seq, nuniq, misses int) bool {
	sp := &m.spec
	if !sp.valid {
		return false
	}
	expectReleased := sp.released
	if sp.relSeq >= 0 {
		expectReleased++
	}
	ok := sp.seq == seq &&
		sp.nuniq == nuniq &&
		sp.stampClock == m.specEntryClock &&
		m.stats.Released == expectReleased &&
		sp.hintRelaxed == m.hintRelaxed &&
		sp.projMisses == misses &&
		sp.pollK == m.pollK &&
		!m.degraded && m.coord != nil
	if ok {
		// Cross-check every parked candidate against the live
		// predicate (cheap: O(candidates), not a list walk). The
		// guards above make a mismatch impossible in an undisturbed
		// run; a failure here forces a correct critical re-poll.
		for j := range sp.candQ {
			for _, slot := range sp.candQ[j] {
				if !m.isEvictable(slot) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
	}
	if !ok {
		m.invalidateSpec()
		return false
	}
	// Install: parked batches become each shard's answered poll; the
	// resume anchor's live next pointer is exactly where the real walk
	// would have stopped (intervening unlinks of touched slots repaired
	// the chain past them).
	for j := range m.shards {
		sh := &m.shards[j]
		sh.candQ = append(sh.candQ[:0], sp.candQ[j]...)
		sh.candHead = 0
		sh.candDone = sp.candDone[j]
		if sp.lastCand[j] == nilSlot {
			sh.sweepCur = nilSlot
		} else {
			sh.sweepCur = m.next[sp.lastCand[j]]
		}
	}
	m.coord.adoptStaging()
	sp.valid = false
	m.overlap.Adopted++
	return true
}

// endSpecPlan retires a speculation the finishing Plan never consumed
// (its sweep never armed, or it was staged for an earlier sequence).
// Runs before finishPlan so the stale ledger cannot be priced.
func (m *Manager) endSpecPlan(seq int) {
	if m.spec.valid && m.spec.seq <= seq {
		m.invalidateSpec()
	}
}

// LastPlanCoordCritical returns the modeled coordination latency the
// most recent Plan actually waited for: LastPlanCoord minus the share
// speculation hid under the previous Collect. Equal to LastPlanCoord
// when nothing was adopted (or overlap is off), so engines can charge
// it to stage time unconditionally.
func (m *Manager) LastPlanCoordCritical() float64 { return m.lastCoordCrit }

// LastPlanCoordWall returns the message plane's measured wall clock for
// the most recent Plan's full coordination script (critical + hidden) —
// the measured twin of LastPlanCoord. Zero for co-located placements
// and the S=1 delegate, like LastPlanCoord.
func (m *Manager) LastPlanCoordWall() float64 { return m.lastCoordWall }

// CoordWallStats returns the lifetime measured wall split: the critical
// share Plans waited for and the share hidden under Collect.
func (m *Manager) CoordWallStats() (critical, hidden float64) {
	s := m.CoordStats()
	return s.WallSeconds, s.WallHiddenSeconds
}
