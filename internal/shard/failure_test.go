package shard

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
)

// failureManager builds a manager placed stripe-wise on
// cluster2x2 (shards i -> node i%4; host 0 owns nodes 0-1, host 1
// nodes 2-3) under the given protocol.
func failureManager(t *testing.T, cfg core.Config, shards int, topo *hw.Topology, mode CoordMode) *Manager {
	t.Helper()
	place, err := hw.NewPlacement(hw.PlaceStripe, topo, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Scratchpad: cfg, Shards: shards, Placement: place, Coord: mode})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drive runs seqs Plans against m, releasing every hold immediately so
// the scratchpad ends idle (no in-flight batches).
func drive(t *testing.T, m *Manager, st *stream, from, to int) {
	t.Helper()
	for seq := from; seq < to; seq++ {
		future, hints := st.window(seq, 2, 6)
		res, err := m.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatal(err)
		}
		m.Recycle(res)
		if err := m.Release(seq); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvacuateValidation covers the Evacuate entry conditions.
func TestEvacuateValidation(t *testing.T) {
	cfg := testConfig(64, 16)
	lfu := cfg
	lfu.Policy = cache.LFU
	if _, err := mustNew(t, lfu, 1).Evacuate(hw.Placement{}, func(int) bool { return false }, 0); err == nil {
		t.Fatal("Evacuate on an LFU manager accepted (it walks LRU recency lists)")
	}
	m := mustNew(t, cfg, 2)
	if _, err := m.Evacuate(hw.Placement{}, func(int) bool { return false }, 0); err == nil {
		t.Fatal("Evacuate without any topology accepted (nothing can die co-located)")
	}
	topo := hw.Cluster(2, 2)
	dm := failureManager(t, cfg, 2, topo, CoordExact)
	other, err := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Evacuate(other, func(int) bool { return false }, 0); err == nil {
		t.Fatal("Evacuate across different topology instances accepted")
	}
}

// TestEvacuateIdleHostNoOp is the satellite guarantee: killing a host
// that carries no shards must not touch residency, stats, or the
// placement — a priced no-op (the engine still bills detection, but
// the control plane has nothing to recover).
func TestEvacuateIdleHostNoOp(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(2, 2)
	// S=2 stripe puts both shards on host 0's nodes; host 1 is idle.
	m := failureManager(t, cfg, 2, topo, CoordExact)
	st := newStream(3, 48, 32, int64(128*6))
	drive(t, m, st, 0, 40)

	before := residency(m)
	place := m.Placement()
	st2, err := m.Evacuate(place, func(h int) bool { return h == 1 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != (EvacStats{}) {
		t.Fatalf("idle-host evacuation produced stats: %+v", st2)
	}
	if m.EvacStats() != (EvacStats{}) {
		t.Fatalf("idle-host evacuation accumulated lifetime stats: %+v", m.EvacStats())
	}
	sameResidency(t, "idle-host-kill", before, residency(m))
	drive(t, m, st, 40, 48) // and the manager still plans normally
}

// TestEvacuateDropsResidency: killing host 1 under a 4-shard stripe
// drops the dead shards' resident entries (repriced as future cold
// misses), keeps every survivor at its slot, re-homes the placement,
// and prices the re-announcement traffic.
func TestEvacuateDropsResidency(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(2, 2)
	m := failureManager(t, cfg, 4, topo, CoordExact)
	st := newStream(5, 48, 32, int64(128*6))
	drive(t, m, st, 0, 40)

	before := residency(m)
	dead := func(h int) bool { return h == 1 }
	place, err := hw.EvacuatePlacement(m.Placement(), dead)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Evacuate(place, dead, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 1 || stats.ShardsEvacuated != 2 {
		t.Fatalf("evacuation events/shards %d/%d, want 1/2", stats.Events, stats.ShardsEvacuated)
	}
	if stats.LostResident == 0 {
		t.Fatal("no residency lost despite two dead shards (stream must populate all shards)")
	}
	if stats.RestoredResident != 0 || stats.HeldKept != 0 {
		t.Fatalf("idle uncheckpointed kill restored/kept entries: %+v", stats)
	}
	if stats.FreeMoved == 0 || stats.Bytes <= 0 || stats.Rounds == 0 || stats.Seconds <= 0 {
		t.Fatalf("evacuation transfers not priced: %+v", stats)
	}
	after := residency(m)
	if len(after) != len(before)-int(stats.LostResident) {
		t.Fatalf("resident %d, want %d - %d lost", len(after), len(before), stats.LostResident)
	}
	for id, slot := range after {
		if before[id] != slot {
			t.Fatalf("surviving row %d moved from slot %d to %d", id, before[id], slot)
		}
	}
	for _, n := range m.Placement().Node {
		if topo.Nodes[n].Host == 1 {
			t.Fatalf("shard still homed on the dead host: %v", m.Placement().Node)
		}
	}
	drive(t, m, st, 40, 48) // cold misses refill; the plane keeps planning
}

// TestEvacuateCheckpointRestore: with a restore row size (checkpoint
// recovery) nothing drops — residency is bit-identical across the kill
// at bulk-transfer prices.
func TestEvacuateCheckpointRestore(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(2, 2)
	m := failureManager(t, cfg, 4, topo, CoordExact)
	st := newStream(5, 48, 32, int64(128*6))
	drive(t, m, st, 0, 40)

	before := residency(m)
	dead := func(h int) bool { return h == 1 }
	place, err := hw.EvacuatePlacement(m.Placement(), dead)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Evacuate(place, dead, 512)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LostResident != 0 {
		t.Fatalf("checkpointed evacuation lost %d entries", stats.LostResident)
	}
	if stats.RestoredResident == 0 {
		t.Fatal("checkpointed evacuation restored nothing")
	}
	// Only transfers crossing a real link are priced (restores landing
	// on the coordinator's own node are local), so the bound is the
	// rows that left node 0, not all of them.
	if stats.Bytes <= 0 || stats.Seconds <= 0 {
		t.Fatalf("checkpoint restore transfers not priced: %+v", stats)
	}
	sameResidency(t, "checkpoint-restore", before, residency(m))
}

// TestDegradeHealCycle: a partition degrades the protocol to approx
// (no stamp-sync rounds while degraded), heal restores it and prices
// the stamp re-sync.
func TestDegradeHealCycle(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(2, 2)
	m := failureManager(t, cfg, 4, topo, CoordHier)
	st := newStream(7, 48, 32, int64(128*6))
	drive(t, m, st, 0, 16)

	if m.Degraded() {
		t.Fatal("manager degraded before any fault")
	}
	if m.Heal() != 0 {
		t.Fatal("Heal on a healthy manager priced a re-sync")
	}
	m.Degrade()
	if !m.Degraded() {
		t.Fatal("Degrade did not take")
	}
	m.Degrade() // idempotent
	syncs := m.CoordStats().StampSyncRounds
	drive(t, m, st, 16, 32)
	if got := m.CoordStats().StampSyncRounds; got != syncs {
		t.Fatalf("degraded manager sent %d stamp-sync rounds across the cut", got-syncs)
	}
	resync := m.Heal()
	if m.Degraded() {
		t.Fatal("Heal did not restore the protocol")
	}
	if resync <= 0 {
		t.Fatal("cross-host stamp re-sync not priced")
	}
	if got := m.CoordStats().StampSyncRounds; got <= syncs {
		t.Fatalf("Heal metered no stamp re-sync rounds (%d before, %d after)", syncs, got)
	}
	drive(t, m, st, 32, 48)

	// Native approx already runs the degraded protocol; Degrade must
	// leave it alone.
	ma := failureManager(t, testConfig(64, 16), 2, topo, CoordApprox)
	ma.Degrade()
	if ma.Degraded() {
		t.Fatal("native approx manager marked degraded")
	}
}

// TestReelectAggregator: losing host 0's aggregator under hier elects
// the host's next shard's node, prices the votes + announcement, and
// leaves exact-mode managers untouched.
func TestReelectAggregator(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(2, 2)
	m := failureManager(t, cfg, 4, topo, CoordHier)
	st := newStream(9, 24, 32, int64(128*6))
	drive(t, m, st, 0, 8)

	secs := m.ReelectAggregator(0)
	if secs <= 0 {
		t.Fatal("re-election not priced")
	}
	cs := m.CoordStats()
	// Host 0 carries shards 0 and 2 (stripe on nodes 0,1,2,3 -> nodes
	// 0 and 2... host 0 owns nodes 0-1): its shard votes plus one
	// announcement to the global coordinator.
	if cs.ReelectRounds == 0 || cs.ReelectBytes <= 0 {
		t.Fatalf("re-election rounds/bytes not metered: %+v", cs)
	}
	drive(t, m, st, 8, 16) // the elected aggregator keeps coordinating

	// No aggregator tier in exact mode: nothing to re-elect.
	me := failureManager(t, testConfig(64, 16), 2, topo, CoordExact)
	if got := me.ReelectAggregator(0); got != 0 {
		t.Fatalf("exact-mode re-election priced %g", got)
	}
	// Unknown host: no-op.
	if got := m.ReelectAggregator(7); got != 0 {
		t.Fatalf("re-election for an absent host priced %g", got)
	}
}
