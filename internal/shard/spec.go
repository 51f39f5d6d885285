// Overlapped coordination (-coord-overlap): the pipeline knows the next
// batch one cycle before its Plan runs, and so does the coordinator.
//
// Once per cycle, after the cycle's Plan, the engine hands each manager
// the next batch through [Manager.OverlapNextPlan]. If that Plan will
// sweep for victims — its misses exceed the free primary budget — the
// manager marks it overlapped. The first poll round of an overlapped
// Plan's first armed sweep (the polls the first victim() call makes,
// shards 0..S-1 in order) asks for candidates the coordinator could
// already name a cycle earlier: between the check and the Plan, holds
// drop only through the one Release the engine issues, pins only expire
// through the pin epoch the Plan advances, and recency only moves
// through slots the Plan touches and therefore holds. A walk of the
// recency lists under that projection returns exactly the candidates
// the round polls (spec_test.go keeps the walk as a test oracle). So
// that round sits off the critical path: the Plan records it on the
// coordination meter's overlapped script (coord.go), priced as
// OverlapSeconds and queued as the message plane's hidden prefix,
// and every later round stays critical.
//
// Any event outside that closed set — reshard, evacuation, degrade,
// heal, aggregator re-election, prewarm — clears the mark, and the Plan
// prices every round critically. Plans, victims, statistics and traffic
// are identical with overlap on or off; only the critical/hidden split
// of the coordination seconds moves.
package shard

// OverlapStats counts overlapped-coordination outcomes over a Manager's
// lifetime.
type OverlapStats struct {
	// Speculated counts Plans OverlapNextPlan marked overlapped: the
	// ones predicted to sweep for victims.
	Speculated int64
	// Adopted counts marked Plans that hid their first poll round.
	Adopted int64
	// RolledBack counts marks cleared unused — by an invalidating event
	// (reshard, evacuation, degrade, heal, re-election, prewarm) or by a
	// Plan that never swept.
	RolledBack int64
}

// Merge adds another manager's lifetime outcomes into s.
func (s *OverlapStats) Merge(o OverlapStats) {
	s.Speculated += o.Speculated
	s.Adopted += o.Adopted
	s.RolledBack += o.RolledBack
}

// OverlapStats returns the manager's lifetime overlap outcomes (the zero
// value when no Plan was ever marked).
func (m *Manager) OverlapStats() OverlapStats { return m.overlap }

// OverlapNextPlan marks the next Plan overlapped when it will sweep for
// victims: uniq is its batch's distinct IDs, and the call must come
// after the previous Plan and before anything but one Release touches
// the manager. It is a no-op (nothing marked, nothing counted) without a
// coordination meter (a single shard or a co-located placement: nothing
// to meter), in degraded partition mode, and for a batch whose misses
// fit the free budget (no sweep, no polls to hide).
func (m *Manager) OverlapNextPlan(uniq []int64) {
	m.dropOverlap()
	if m.coord == nil || m.degraded {
		return
	}
	misses := 0
	for _, id := range uniq {
		if !m.Contains(id) {
			misses++
		}
	}
	if misses > m.freePrimaryTotal {
		m.overlapNext = true
		m.overlap.Speculated++
	}
}

// dropOverlap clears an unused overlap mark. Every state mutation
// outside the projected closed set calls it — reshard, evacuation,
// degrade/heal, aggregator re-election, prewarm — and so does a Plan
// that finishes without sweeping.
func (m *Manager) dropOverlap() {
	if m.overlapNext {
		m.overlapNext = false
		m.overlap.RolledBack++
	}
}

// armFirstSweep arms the Plan's first victim sweep, hiding its first
// poll round when the Plan is marked overlapped.
func (m *Manager) armFirstSweep() {
	hide := m.overlapNext
	if hide {
		m.overlapNext = false
		m.overlap.Adopted++
	}
	m.armSweep(hide)
}

// LastPlanCoordCritical returns the modeled coordination latency the
// most recent Plan actually waited for: LastPlanCoord minus its hidden
// first poll round. Equal to LastPlanCoord when nothing was hidden (or
// overlap is off), so engines can charge it to stage time
// unconditionally.
func (m *Manager) LastPlanCoordCritical() float64 { return m.lastCoordCrit }

// LastPlanCoordWall returns the message plane's queueing makespan for
// the most recent Plan's full coordination script (critical + hidden) —
// the second price of the script LastPlanCoord sums serially. Zero for co-located placements and
// a single shard, like LastPlanCoord.
func (m *Manager) LastPlanCoordWall() float64 { return m.lastCoordWall }
