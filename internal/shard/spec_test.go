package shard

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/intmap"
)

// Projection marks of the look-forward oracle, one byte per slot.
const (
	projReleased uint8 = 1 << iota // holds will drop by one (the Release)
	projHeld                       // the next Plan's batch hits it (holds will rise)
	projPinned                     // the next Plan's window pass will pin it
	projHinted                     // the next Plan's hint pass will stamp it
)

// projectFirstRound is the look-forward oracle behind overlapped
// coordination. Called after Plan seq-1 and before the Release of batch
// releaseSeq (-1: none) and Plan seq(uniq, future, hints), it projects
// the manager's state across both and walks every shard's recency list
// the way that Plan's first armed sweep will: the candidates each shard's
// first poll returns, in poll order. nil when there is no round to hide:
// no coordination meter, degraded mode, or misses that fit the free
// budget (no sweep).
func projectFirstRound(t *testing.T, m *Manager, seq int, uniq []int64, future, hints [][]int64, releaseSeq int) [][]int32 {
	t.Helper()
	if m.coord == nil || m.degraded {
		return nil
	}
	marks := make([]uint8, m.TotalSlots())
	// The Release drops the front hold set of every shard.
	if releaseSeq >= 0 {
		for j := range m.shards {
			sh := &m.shards[j]
			if sh.Ring.Len() == 0 || sh.Ring.Front().Seq != releaseSeq {
				t.Fatalf("oracle: shard %d's oldest batch is not %d", j, releaseSeq)
			}
			for _, slot := range sh.Ring.Front().Slots {
				if m.Holds(slot) == 1 {
					marks[slot] |= projReleased
				}
			}
		}
	}
	// The Plan's passes: batch hits hold, window hits pin, hint hits
	// stamp. Residency cannot change before the Plan, so misses are the
	// batch IDs without a slot now.
	slotOf := residency(m)
	misses := 0
	for _, id := range uniq {
		if slot, ok := slotOf[id]; ok {
			marks[slot] |= projHeld
		} else {
			misses++
		}
	}
	if misses <= m.freePrimaryTotal {
		return nil
	}
	// The Plan's pin-window trim: the prefix earlier Plans' deeper
	// look-ahead already pinned.
	for _, fids := range future[m.PinStart(seq, len(future)):] {
		for _, id := range fids {
			if slot, ok := slotOf[id]; ok {
				marks[slot] |= projPinned
			}
		}
	}
	hintRelaxed := len(hints) == 0
	for _, hids := range hints {
		for _, id := range hids {
			if slot, ok := slotOf[id]; ok {
				marks[slot] |= projHinted
			}
		}
	}
	// Evictable at the Plan's pin epoch (one Plan ahead), where a window
	// pin always protects.
	evictable := func(slot int32) bool {
		f := marks[slot]
		h := m.Holds(slot)
		if f&projReleased != 0 {
			h--
		}
		switch {
		case f&(projHeld|projPinned) != 0, h != 0, m.Key(slot) < 0, m.PinnedAfter(slot, 1):
			return false
		}
		return hintRelaxed || f&projHinted == 0
	}
	pollK := 1
	if m.mode != CoordExact && misses > 1 {
		pollK = misses
	}
	round := make([][]int32, len(m.shards))
	for j := range m.shards {
		for cur := m.LRU().Front(j); cur != nilSlot && len(round[j]) < pollK; cur = m.LRU().Next(cur) {
			if evictable(cur) {
				round[j] = append(round[j], cur)
			}
		}
	}
	return round
}

// driveOverlap is driveLockstep with manager b running the engine's
// overlap choreography: after each Plan, mark the next Plan
// (OverlapNextPlan), then release and go around. Before the mark, the
// look-forward oracle projects the next Plan's first poll round, and
// every round b hides must poll exactly those candidates. disturb, when
// non-nil, runs on both managers between the mark and the Release (an
// invalidating event); without it, every Plan the oracle sees sweeping
// must hide its first round.
func driveOverlap(t *testing.T, label string, a, b *Manager, st *stream, iters, futureWin, lookahead int, disturb func(seq int, m *Manager)) {
	t.Helper()
	const depth = 4
	dedup := intmap.New(64)
	var uniq []int64
	var cnt []int32
	var want, got [][]int32
	hidden := false
	b.onHiddenRound = func() {
		hidden = true
		got = got[:0]
		for j := range b.shards {
			got = append(got, slices.Clone(b.shards[j].candQ))
		}
	}
	var pendA, pendB []*core.PlanResult
	for seq := 0; seq < iters; seq++ {
		future, hints := st.window(seq, futureWin, lookahead)
		ra, err := a.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatalf("%s seq %d: baseline Plan: %v", label, seq, err)
		}
		hidden = false
		rb, err := b.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatalf("%s seq %d: overlapped Plan: %v", label, seq, err)
		}
		samePlan(t, label, seq, ra, rb)
		for k := range ra.Slots {
			if ra.Slots[k] != rb.Slots[k] {
				t.Fatalf("%s seq %d: slot %d differs (%d vs %d): overlap changed planning",
					label, seq, k, ra.Slots[k], rb.Slots[k])
			}
		}
		switch {
		case hidden && want == nil:
			t.Fatalf("%s seq %d: hid a round the oracle saw no sweep for", label, seq)
		case hidden && !slices.EqualFunc(want, got, slices.Equal):
			t.Fatalf("%s seq %d: hidden round polled %v, the look-forward walk projected %v", label, seq, got, want)
		case !hidden && want != nil && disturb == nil:
			t.Fatalf("%s seq %d: the oracle projected a sweep but no round was hidden", label, seq)
		}
		pendA, pendB = append(pendA, ra), append(pendB, rb)

		// The engine's overlap window: look at the next Plan against the
		// current state, before the Release that will precede it.
		want = nil
		if seq+1 < iters {
			rel := -1
			if len(pendA) >= depth {
				rel = seq - depth + 1
			}
			uniq, cnt = intmap.Dedup(st.at(seq+1), dedup, uniq[:0], cnt[:0])
			nf, nh := st.window(seq+1, futureWin, lookahead)
			want = projectFirstRound(t, b, seq+1, uniq, nf, nh, rel)
			b.OverlapNextPlan(uniq)
		}
		if disturb != nil {
			disturb(seq, a)
			disturb(seq, b)
		}

		if len(pendA) >= depth {
			old := seq - depth + 1
			if err := a.Release(old); err != nil {
				t.Fatalf("%s: baseline Release(%d): %v", label, old, err)
			}
			if err := b.Release(old); err != nil {
				t.Fatalf("%s: overlapped Release(%d): %v", label, old, err)
			}
			a.Recycle(pendA[0])
			b.Recycle(pendB[0])
			pendA, pendB = pendA[1:], pendB[1:]
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats diverged:\nbase %+v\noverlap %+v", label, a.Stats(), b.Stats())
	}
}

// sameTraffic asserts the two managers metered identical coordination
// traffic: counters and bytes exactly (all payload sums are integer-
// valued, so float addition is exact), priced seconds within tol
// relative (the critical/overlapped split re-associates the per-link
// sums).
func sameTraffic(t *testing.T, label string, a, b CoordStats, tol float64) {
	t.Helper()
	ca, cb := a, b
	ca.Seconds, cb.Seconds = 0, 0
	ca.OverlapSeconds, cb.OverlapSeconds = 0, 0
	ca.WallSeconds, cb.WallSeconds = 0, 0
	ca.WallHiddenSeconds, cb.WallHiddenSeconds = 0, 0
	if ca != cb {
		t.Fatalf("%s: coordination counters diverged:\nbase %+v\noverlap %+v", label, ca, cb)
	}
	if d := math.Abs(a.Seconds - b.Seconds); d > tol*math.Max(a.Seconds, 1e-30) {
		t.Fatalf("%s: coordination seconds diverged beyond %g: %g vs %g", label, tol, a.Seconds, b.Seconds)
	}
}

// overlapManager builds an S-shard stripe manager on cluster2x2 under
// mode.
func overlapManager(t *testing.T, cfg core.Config, shards int, mode CoordMode) *Manager {
	t.Helper()
	pl, err := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 2), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Scratchpad: cfg, Shards: shards, Pool: nil, Placement: pl, Coord: mode})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOverlapEquivalence is the overlap property at the shard layer:
// with the engine's choreography, plans, victims, physical slots,
// statistics, and coordination traffic are identical to a run without
// overlap — the hidden share just moves from critical to overlapped —
// and every hidden round polls exactly the candidates the look-forward
// oracle projected a cycle earlier, across every protocol and shard
// count the fig12b/fig13 suites sweep.
func TestOverlapEquivalence(t *testing.T) {
	for _, mode := range CoordModes {
		for _, shards := range []int{2, 4} {
			label := string(mode) + "/S=" + string(rune('0'+shards))
			cfg := testConfig(512, 96)
			base, over := overlapManager(t, cfg, shards, mode), overlapManager(t, cfg, shards, mode)
			st := newStream(77, 96, 96, int64(512*4))
			driveOverlap(t, label, base, over, st, 150, 2, 6, nil)

			if os := base.OverlapStats(); os != (OverlapStats{}) {
				t.Fatalf("%s: baseline marked Plans overlapped: %+v", label, os)
			}
			os := over.OverlapStats()
			if os.Speculated == 0 || os.Adopted != os.Speculated || os.RolledBack != 0 {
				t.Fatalf("%s: undisturbed run must hide a round in every marked Plan: %+v", label, os)
			}
			sameTraffic(t, label, base.CoordStats(), over.CoordStats(), 1e-9)

			cs := over.CoordStats()
			if cs.OverlapSeconds <= 0 {
				t.Fatalf("%s: nothing hidden: %+v", label, cs)
			}
			if cs.OverlapSeconds >= cs.Seconds {
				t.Fatalf("%s: hidden share %g not a strict share of %g", label, cs.OverlapSeconds, cs.Seconds)
			}
			if base.CoordStats().OverlapSeconds != 0 {
				t.Fatalf("%s: baseline priced an overlapped share", label)
			}
			// The queueing wall must cover both scripts: hidden wall only
			// on the overlapped run, critical wall on both.
			if cs.WallHiddenSeconds <= 0 || cs.WallSeconds <= 0 {
				t.Fatalf("%s: measured wall missing a share: %+v", label, cs)
			}
			if bs := base.CoordStats(); bs.WallHiddenSeconds != 0 || bs.WallSeconds <= 0 {
				t.Fatalf("%s: baseline wall shape wrong: %+v", label, bs)
			}
		}
	}
}

// TestOverlapColocatedNoOp: without a coordination meter there is
// nothing to hide; OverlapNextPlan must be a free no-op so engines can
// call it unconditionally.
func TestOverlapColocatedNoOp(t *testing.T) {
	cfg := testConfig(256, 64)
	mk := func() *Manager {
		m, err := New(Config{Scratchpad: cfg, Shards: 4, Pool: nil})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base, over := mk(), mk()
	st := newStream(31, 64, 64, int64(256*4))
	driveOverlap(t, "colocated", base, over, st, 100, 2, 0, nil)
	if os := over.OverlapStats(); os != (OverlapStats{}) {
		t.Fatalf("co-located manager marked Plans overlapped: %+v", os)
	}
	if cs := over.CoordStats(); cs != (CoordStats{}) {
		t.Fatalf("co-located manager metered coordination: %+v", cs)
	}
}

// TestOverlapInvalidatedByFaults: an event outside the projected closed
// set must clear the overlap mark, and the following Plan must price
// every round critically and stay correct. Every round that is hidden
// still matches the oracle.
func TestOverlapInvalidatedByFaults(t *testing.T) {
	cfg := testConfig(512, 96)
	base, over := overlapManager(t, cfg, 4, CoordHier), overlapManager(t, cfg, 4, CoordHier)
	st := newStream(77, 96, 96, int64(512*4))
	driveOverlap(t, "faulted", base, over, st, 120, 2, 6, func(seq int, m *Manager) {
		if seq%10 == 5 {
			// A degrade/heal cycle between the mark and the Plan.
			m.Degrade()
			m.Heal()
		}
	})
	os := over.OverlapStats()
	if os.RolledBack == 0 || os.Adopted == 0 {
		t.Fatalf("fault schedule produced no mix of outcomes: %+v", os)
	}
	sameTraffic(t, "faulted", base.CoordStats(), over.CoordStats(), 1e-9)
}
