package shard

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/par"
)

// mustNew builds a manager, failing the test on error.
func mustNew(t *testing.T, cfg core.Config, shards int, opts ...func(*Config)) *Manager {
	t.Helper()
	c := Config{Scratchpad: cfg, Shards: shards}
	for _, o := range opts {
		o(&c)
	}
	m, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// residency snapshots the manager's full (id -> slot) map.
func residency(m *Manager) map[int64]int32 {
	out := make(map[int64]int32, m.Len())
	m.ForEach(func(id int64, slot int32) { out[id] = slot })
	return out
}

// sameResidency asserts two residency snapshots are identical: every
// cached row reachable, at the same physical slot.
func sameResidency(t *testing.T, label string, want, got map[int64]int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: resident rows %d, want %d (cached rows lost or invented)", label, len(got), len(want))
	}
	for id, slot := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: cached row %d lost across reshard", label, id)
		}
		if g != slot {
			t.Fatalf("%s: row %d moved from slot %d to %d (slots are global and must not move)", label, id, slot, g)
		}
	}
}

// TestReshardValidation covers the Reshard entry conditions.
func TestReshardValidation(t *testing.T) {
	cfg := testConfig(64, 16)
	m := mustNew(t, cfg, 2)
	if err := m.Reshard(0, hw.Placement{}); err == nil {
		t.Fatal("Reshard to 0 shards accepted")
	}
	if err := m.Reshard(MaxShards+1, hw.Placement{}); err == nil {
		t.Fatal("Reshard above MaxShards accepted (batch routing stores owners in 16 bits)")
	}
	topo := hw.Cluster(2, 2)
	short, err := hw.NewPlacement(hw.PlaceStripe, topo, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reshard(4, short); err == nil {
		t.Fatal("Reshard with a placement covering the wrong shard count accepted")
	}
	lfu := cfg
	lfu.Policy = cache.LFU
	if err := mustNew(t, lfu, 1).Reshard(2, hw.Placement{}); err == nil {
		t.Fatal("Reshard on an LFU manager accepted (migration re-threads LRU recency state)")
	}
	// Placements on different topology instances must be rejected: the
	// migration meter cannot price links between two unrelated graphs.
	p1, _ := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 2), 2, nil)
	if err := m.Reshard(2, p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 1), 2, nil)
	if err := m.Reshard(2, p2); err == nil {
		t.Fatal("Reshard across different topology instances accepted")
	}
}

// driveResharding runs st through the reference and manager m in
// lockstep, calling m.Reshard per the schedule (iteration -> new shard
// count, co-located) before that iteration's Plan and asserting that
// every boundary preserves the residency map bit for bit.
func driveResharding(t *testing.T, label string, ref *reference, m *Manager, st *stream, iters, futureWin int, schedule map[int]int) {
	t.Helper()
	lockstep(t, label, ref, []*Manager{m}, st, iters, futureWin, 0, 4, func(seq int) {
		newS, ok := schedule[seq]
		if !ok {
			return
		}
		before := residency(m)
		if err := m.Reshard(newS, hw.Placement{}); err != nil {
			t.Fatalf("%s seq %d: Reshard(%d): %v", label, seq, newS, err)
		}
		if got := m.Shards(); got != newS {
			t.Fatalf("%s seq %d: shards %d after Reshard(%d)", label, seq, got, newS)
		}
		sameResidency(t, label, before, residency(m))
	})
}

// TestReshardEquivalence is the tentpole property: a run that reshards
// S=1 -> 4 -> 2 -> 1 mid-stream — with batches in flight at every
// boundary — must keep emitting exactly the reference's plans, eviction
// victims, and statistics, and every boundary must
// preserve the full residency map (no silent row loss). The final leg
// checks the one-shard pass after a reshard.
func TestReshardEquivalence(t *testing.T) {
	cfg := testConfig(512, 96)
	m := mustNew(t, cfg, 1, func(c *Config) { c.Pool = par.New(2) })
	st := newStream(29, 96, 96, int64(512*4))
	driveResharding(t, "reshard-1-4-2-1", newReference(cfg), m, st, 180, 2, map[int]int{50: 4, 100: 2, 130: 1})
	rs := m.ReshardStats()
	if rs.Events != 3 {
		t.Fatalf("reshard events %d, want 3", rs.Events)
	}
	if rs.ResidentMoved == 0 {
		t.Fatal("no resident entries re-bucketed across S=1 -> 4 -> 2 -> 1")
	}
	if rs.HoldsMoved == 0 {
		t.Fatal("no in-flight hold entries re-bucketed despite batches in flight at both boundaries")
	}
	if rs.Bytes != 0 || rs.Seconds != 0 || rs.Rounds != 0 {
		t.Fatalf("co-located migration priced: %+v", rs)
	}
}

// TestReshardApproxPin pins the approx protocol across resharding from
// one shard: an approx manager stepped S=1 -> 4 -> 2 with batches in
// flight must end with the recorded statistics and eviction sequence.
// Approx compares quantized stamps, so unlike exact and hier it has no
// unsharded reference to match; the constants are its regression anchor.
func TestReshardApproxPin(t *testing.T) {
	cfg := testConfig(384, 80)
	m := mustNew(t, cfg, 1, func(c *Config) { c.Coord = CoordApprox })
	st := newStream(31, 96, 80, int64(384*4))
	h := fnv.New64a()
	const depth = 4
	var pend []*core.PlanResult
	for seq := 0; seq < 150; seq++ {
		if newS, ok := map[int]int{40: 4, 90: 2}[seq]; ok {
			if err := m.Reshard(newS, hw.Placement{}); err != nil {
				t.Fatal(err)
			}
		}
		future, _ := st.window(seq, 2, 0)
		res, err := m.PlanWithHints(seq, st.at(seq), future, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Evictions {
			fmt.Fprintf(h, "%d:%d,", e.OldID, e.Slot)
		}
		if pend = append(pend, res); len(pend) >= depth {
			if err := m.Release(seq - depth + 1); err != nil {
				t.Fatal(err)
			}
			m.Recycle(pend[0])
			pend = pend[1:]
		}
	}
	want := core.Stats{Queries: 12000, Hits: 3925, Misses: 8075, UniqueQueries: 11719, UniqueHits: 3644,
		UniqueMisses: 8075, Fills: 8075, Evictions: 7691, Planned: 150, Released: 147}
	if got := m.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if got, want := h.Sum64(), uint64(0x2687a1da4cd1c639); got != want {
		t.Errorf("victim sequence hash %#x, want %#x", got, want)
	}
}

// TestReshardSameSNoOp: a reshard to the current shard count must be a
// priced no-op — bit-identical plans (physical slots included) after
// the boundary against a manager that never resharded, zero migration
// cost under an unchanged placement.
func TestReshardSameSNoOp(t *testing.T) {
	cfg := testConfig(256, 64)
	ref := mustNew(t, cfg, 3)
	m := mustNew(t, cfg, 3)
	st := newStream(13, 64, 64, int64(256*4))
	const depth = 4
	var pendA, pendB []*core.PlanResult
	for seq := 0; seq < 90; seq++ {
		if seq == 40 {
			before := residency(m)
			if err := m.Reshard(3, hw.Placement{}); err != nil {
				t.Fatal(err)
			}
			sameResidency(t, "same-S", before, residency(m))
		}
		future, hints := st.window(seq, 2, 0)
		ra, err := ref.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := m.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, "same-S", seq, ra, rb)
		for i := range ra.Slots {
			if ra.Slots[i] != rb.Slots[i] {
				t.Fatalf("seq %d: slot %d: %d vs %d (same-S reshard must be bit-identical)", seq, i, ra.Slots[i], rb.Slots[i])
			}
		}
		pendA, pendB = append(pendA, ra), append(pendB, rb)
		if len(pendA) >= depth {
			old := seq - depth + 1
			if err := ref.Release(old); err != nil {
				t.Fatal(err)
			}
			if err := m.Release(old); err != nil {
				t.Fatal(err)
			}
			ref.Recycle(pendA[0])
			m.Recycle(pendB[0])
			pendA, pendB = pendA[1:], pendB[1:]
		}
	}
	if ref.Stats() != m.Stats() {
		t.Fatalf("stats diverged:\nref     %+v\nreshard %+v", ref.Stats(), m.Stats())
	}
	rs := m.ReshardStats()
	if rs.Events != 1 || rs.Bytes != 0 || rs.Seconds != 0 {
		t.Fatalf("same-S reshard not a free priced no-op: %+v", rs)
	}
}

// TestReshardFuzz drives random streams through random grow/shrink
// schedules (always with batches in flight) against a fresh reference,
// checking plans and statistics after every batch of every trial.
func TestReshardFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	counts := []int{1, 2, 3, 4, 5, 7, 8}
	for trial := 0; trial < 10; trial++ {
		slots := 64 + rng.Intn(512)
		batchLen := 16 + rng.Intn(96)
		idSpace := int64(slots/2 + rng.Intn(slots*6))
		cfg := core.Config{
			Slots:        slots,
			Policy:       cache.LRU,
			PastWindow:   3,
			FutureWindow: rng.Intn(3),
		}
		cfg.Reserve = core.WorstCaseReserve(cfg, batchLen)
		start := counts[rng.Intn(len(counts))]
		m := mustNew(t, cfg, start, func(c *Config) { c.Pool = par.New(2) })
		schedule := map[int]int{}
		for _, at := range []int{10 + rng.Intn(15), 30 + rng.Intn(15)} {
			schedule[at] = counts[rng.Intn(len(counts))]
		}
		st := newStream(rng.Int63(), 32, batchLen, idSpace)
		label := fmt.Sprintf("trial %d (slots %d, batch %d, start S=%d, schedule %v)", trial, slots, batchLen, start, schedule)
		driveResharding(t, label, newReference(cfg), m, st, 60, cfg.FutureWindow, schedule)
	}
}

// TestReshardMigrationCost pins the pricing model: co-located moves are
// free; scaling S=1 -> 4 across a two-host cluster pays network/NUMA
// state transfer; a same-S placement change prices the relocated
// shards' full control state; returning to the same nodes is free
// again.
func TestReshardMigrationCost(t *testing.T) {
	cfg := testConfig(256, 64)
	topo := hw.Cluster(2, 2)
	stripe := func(s int) hw.Placement {
		p, err := hw.NewPlacement(hw.PlaceStripe, topo, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := mustNew(t, cfg, 1)
	st := newStream(7, 32, 64, int64(256*4))
	var pend []*core.PlanResult
	for seq := 0; seq < 32; seq++ {
		future, _ := st.window(seq, 2, 0)
		res, err := m.PlanWithHints(seq, st.at(seq), future, nil)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, res)
		if len(pend) >= 4 {
			if err := m.Release(seq - 3); err != nil {
				t.Fatal(err)
			}
			m.Recycle(pend[0])
			pend = pend[1:]
		}
	}

	// S=1 -> 4 striped across the cluster: shard 0's state stays on
	// node 0, shards 1-3's control entries cross NUMA and network
	// links. Migration must be priced > 0.
	if err := m.Reshard(4, stripe(4)); err != nil {
		t.Fatal(err)
	}
	rs := m.ReshardStats()
	if rs.Bytes <= 0 || rs.Seconds <= 0 || rs.Rounds <= 0 {
		t.Fatalf("distributed scale-out not priced: %+v", rs)
	}
	if m.LastReshardTime() != rs.Seconds {
		t.Fatalf("LastReshardTime %g != event seconds %g", m.LastReshardTime(), rs.Seconds)
	}

	// Same-S, same placement: free no-op.
	before := m.ReshardStats()
	if err := m.Reshard(4, stripe(4)); err != nil {
		t.Fatal(err)
	}
	rs = m.ReshardStats()
	if rs.Events != before.Events+1 {
		t.Fatalf("same-S reshard not counted: %+v", rs)
	}
	if rs.Bytes != before.Bytes || rs.Seconds != before.Seconds {
		t.Fatalf("same-S same-placement reshard cost bytes: %+v vs %+v", rs, before)
	}
	if m.LastReshardTime() != 0 {
		t.Fatalf("same-placement no-op priced %g", m.LastReshardTime())
	}

	// Same-S, reversed placement: every shard changes nodes, so each
	// ships its full control state across a link.
	reversed := hw.Placement{Topo: topo, Node: []int{3, 2, 1, 0}}
	if err := m.Reshard(4, reversed); err != nil {
		t.Fatal(err)
	}
	if m.LastReshardTime() <= 0 {
		t.Fatal("same-S placement relocation not priced")
	}

	// Shrink back to 1 co-located (zero placement = everything on node
	// 0): the state pays its way home off nodes 1-3.
	if err := m.Reshard(1, hw.Placement{}); err != nil {
		t.Fatal(err)
	}
	if m.LastReshardTime() <= 0 {
		t.Fatal("shrink from distributed nodes back to node 0 not priced")
	}
	if m.Shards() != 1 {
		t.Fatalf("shards %d after shrink to 1", m.Shards())
	}

	// Fully co-located from here on: growing again without a topology
	// must cost exactly zero despite re-bucketing entries.
	before = m.ReshardStats()
	if err := m.Reshard(4, hw.Placement{}); err != nil {
		t.Fatal(err)
	}
	rs = m.ReshardStats()
	if rs.ResidentMoved <= before.ResidentMoved {
		t.Fatal("co-located grow re-bucketed nothing")
	}
	if rs.Bytes != before.Bytes || rs.Seconds != before.Seconds || rs.Rounds != before.Rounds {
		t.Fatalf("co-located move priced: %+v vs %+v", rs, before)
	}

	// Drain cleanly: holds must have migrated intact through all of it.
	for i := range pend {
		if err := m.Release(32 - len(pend) + i); err != nil {
			t.Fatalf("post-reshard Release: %v", err)
		}
		m.Recycle(pend[i])
	}
	if m.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", m.InFlight())
	}
}

// TestReshardCoordStatsCarry: lifetime coordination traffic must
// survive a reshard (each event retires the placement's meter).
func TestReshardCoordStatsCarry(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(2, 2)
	p4, err := hw.NewPlacement(hw.PlaceStripe, topo, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, cfg, 4, func(c *Config) { c.Placement = p4 })
	st := newStream(3, 32, 32, 96) // small ID space: evictions guaranteed
	var pend []*core.PlanResult
	step := func(seq int) {
		future, _ := st.window(seq, 2, 0)
		res, err := m.PlanWithHints(seq, st.at(seq), future, nil)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, res)
		if len(pend) >= 4 {
			if err := m.Release(seq - 3); err != nil {
				t.Fatal(err)
			}
			m.Recycle(pend[0])
			pend = pend[1:]
		}
	}
	for seq := 0; seq < 24; seq++ {
		step(seq)
	}
	mid := m.CoordStats()
	if mid.Messages == 0 {
		t.Fatal("no coordination traffic before reshard (test premise broken)")
	}
	if err := m.Reshard(2, hw.Placement{}); err != nil {
		t.Fatal(err)
	}
	after := m.CoordStats()
	if after != mid {
		t.Fatalf("reshard changed lifetime coordination totals: %+v vs %+v", after, mid)
	}
	for seq := 24; seq < 32; seq++ {
		step(seq)
		// Co-located Plans pay nothing; the last distributed Plan's
		// figures must not linger.
		if m.LastPlanCoord() != 0 || m.LastPlanCoordCritical() != 0 || m.LastPlanCoordWall() != 0 {
			t.Fatalf("seq %d: co-located Plan reports coordination %g (critical %g, wall %g)",
				seq, m.LastPlanCoord(), m.LastPlanCoordCritical(), m.LastPlanCoordWall())
		}
	}
	if got := m.CoordStats(); got != after {
		// Co-located now: no new traffic, totals must still be the
		// carried ones.
		t.Fatalf("co-located post-reshard run changed coordination totals: %+v vs %+v", got, after)
	}
}
