package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/shard"
	"repro/internal/trace"
)

// faultEnv builds a metadata-mode environment with a fault schedule and
// checkpoint interval.
func faultEnv(t *testing.T, model dlrm.Config, shards int, topo *hw.Topology, coord shard.CoordMode, plan hw.FaultPlan, ckpt int) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:        model,
		System:       hw.DefaultSystem(),
		Class:        trace.Medium,
		Seed:         42,
		Workers:      2,
		Shards:       shards,
		Topology:     topo,
		Placement:    hw.PlaceStripe,
		Coord:        coord,
		Faults:       plan,
		CkptInterval: ckpt,
	})
	if err != nil {
		t.Fatalf("NewEnv(faults=%q, ckpt=%d): %v", plan, ckpt, err)
	}
	return env
}

// mustFaultPlan parses a -fail schedule, failing the test on error.
func mustFaultPlan(t *testing.T, s string) hw.FaultPlan {
	t.Helper()
	plan, err := hw.ParseFaultPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// smallFaultModel is the shared model for the fault-path tests.
func smallFaultModel() dlrm.Config {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128
	return model
}

// TestFaultValidationEngine: malformed knob combinations are rejected
// at construction, not mid-run.
func TestFaultValidationEngine(t *testing.T) {
	if _, err := NewEnv(EnvConfig{
		Model:        smallModel(),
		System:       hw.DefaultSystem(),
		CkptInterval: -1,
	}); err == nil {
		t.Fatal("negative checkpoint interval accepted by NewEnv")
	}
	if _, err := NewEnv(EnvConfig{
		Model:  smallModel(),
		System: hw.DefaultSystem(),
		Faults: mustFaultPlan(t, "host1@5"),
	}); err == nil {
		t.Fatal("fault plan without a topology accepted by NewEnv")
	}
	if _, err := NewEnv(EnvConfig{
		Model:    smallModel(),
		System:   hw.DefaultSystem(),
		Shards:   4,
		Topology: hw.Cluster(2, 2),
		Faults:   mustFaultPlan(t, "host7@5"),
	}); err == nil {
		t.Fatal("fault plan addressing an absent host accepted by NewEnv")
	}
	// Evacuation walks LRU recency lists, so faults need the LRU policy
	// even at one shard.
	env := faultEnv(t, smallFaultModel(), 1, hw.Cluster(2, 2), shard.CoordHier, mustFaultPlan(t, "host1@5"), 0)
	if _, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.02, Policy: cache.LFU}); err == nil {
		t.Fatal("fault plan with LFU accepted")
	}
}

// TestFaultTopologyPristine: NewEnv clones the topology for an active
// plan, so the caller's graph never sees the mutations the schedule
// applies mid-run.
func TestFaultTopologyPristine(t *testing.T) {
	topo := hw.Cluster(2, 2)
	pristine := topo.Clone()
	env := faultEnv(t, smallFaultModel(), 4, topo, shard.CoordHier,
		mustFaultPlan(t, "host1@5"), 0)
	runSP(t, env)
	if !reflect.DeepEqual(topo, pristine) {
		t.Fatal("fault run mutated the caller's topology")
	}
}

// TestEmptyFaultPlanBitIdentical is the satellite equivalence
// guarantee: an explicitly threaded empty FaultPlan (and zero
// checkpoint interval) must leave the whole Report bit-identical to a
// run that never heard of faults, at every shard count and under every
// coordination protocol.
func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	for _, shards := range []int{1, 2, 4} {
		for _, coord := range shard.CoordModes {
			base := runSP(t, reshardEnv(t, model, shards, topo, ReshardSpec{}))
			withPlan := runSP(t, faultEnv(t, model, shards, topo, coord, hw.FaultPlan{}, 0))
			// Reshard/fault knobs aside, reshardEnv defaults to exact
			// coordination: compare full reports only there, cache
			// statistics everywhere (approx may evict differently by
			// design, exact/hier may not).
			if coord == shard.CoordExact && !reflect.DeepEqual(base, withPlan) {
				t.Fatalf("S=%d %s: empty fault plan changed the report:\nbase  %+v\nfault %+v",
					shards, coord, base, withPlan)
			}
			if withPlan.Downtime != 0 || withPlan.RecoveryTime != 0 || withPlan.CheckpointTime != 0 ||
				withPlan.LostResidency != 0 || withPlan.Evac != (shard.EvacStats{}) {
				t.Fatalf("S=%d %s: empty fault plan accrued fault bookkeeping: %+v", shards, coord, withPlan)
			}
			if withPlan.Availability != 1 {
				t.Fatalf("S=%d %s: fault-free availability %g, want 1", shards, coord, withPlan.Availability)
			}
			if coord != shard.CoordApprox {
				if withPlan.Hits != base.Hits || withPlan.Misses != base.Misses ||
					withPlan.Fills != base.Fills || withPlan.Evictions != base.Evictions {
					t.Fatalf("S=%d %s: empty fault plan changed cache behaviour:\nbase  %+v\nfault %+v",
						shards, coord, base, withPlan)
				}
			}
		}
	}
}

// TestFaultIdleHostKillNoOp is the second satellite equivalence: a
// fleet whose shards all live on host 0 loses idle host 1 — detection
// is priced (downtime, availability < 1) but residency, evacuation,
// and every cache statistic are untouched.
func TestFaultIdleHostKillNoOp(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	// S=2 stripe homes shards on nodes 0 and 1 — both host 0.
	base := runSP(t, faultEnv(t, model, 2, topo, shard.CoordExact, hw.FaultPlan{}, 0))
	killed := runSP(t, faultEnv(t, model, 2, topo, shard.CoordExact,
		mustFaultPlan(t, "host1@10"), 0))
	if killed.Downtime <= 0 {
		t.Fatal("idle-host death not detected (no downtime)")
	}
	if killed.Availability >= 1 {
		t.Fatalf("availability %g despite downtime", killed.Availability)
	}
	if killed.Evac != (shard.EvacStats{}) || killed.LostResidency != 0 || killed.RecoveryTime != 0 {
		t.Fatalf("idle-host death recovered something: %+v", killed.Evac)
	}
	if killed.Hits != base.Hits || killed.Misses != base.Misses ||
		killed.Fills != base.Fills || killed.Evictions != base.Evictions {
		t.Fatalf("idle-host death changed cache behaviour:\nbase   %+v\nkilled %+v", base, killed)
	}
	if killed.IterTime != base.IterTime || killed.CoordTime != base.CoordTime {
		t.Fatalf("idle-host death changed steady-state timing: %g/%g vs %g/%g",
			killed.IterTime, killed.CoordTime, base.IterTime, base.CoordTime)
	}
}

// TestFaultHostKillRecovery is the acceptance scenario: a cluster2x2
// S=4 run loses host 1 mid-sweep, evacuates its shards to host 0,
// reprices the lost residency as cold misses, and completes with a
// nonzero recovery bill and an availability fraction.
func TestFaultHostKillRecovery(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	base := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier, hw.FaultPlan{}, 0))
	killed := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier,
		mustFaultPlan(t, "host1@10"), 0))

	if killed.Iters != base.Iters {
		t.Fatalf("faulted run completed %d iters, want %d", killed.Iters, base.Iters)
	}
	if killed.Downtime <= 0 || killed.RecoveryTime <= 0 {
		t.Fatalf("downtime %g / recovery %g, want both > 0", killed.Downtime, killed.RecoveryTime)
	}
	if killed.Availability <= 0 || killed.Availability >= 1 {
		t.Fatalf("availability %g, want in (0, 1)", killed.Availability)
	}
	ev := killed.Evac
	if ev.Events != int64(model.NumTables) || ev.ShardsEvacuated != int64(2*model.NumTables) {
		t.Fatalf("evacuation events/shards %d/%d, want %d/%d",
			ev.Events, ev.ShardsEvacuated, model.NumTables, 2*model.NumTables)
	}
	if killed.LostResidency == 0 || killed.LostResidency != ev.LostResident {
		t.Fatalf("lost residency %d (evac %d), want equal and > 0", killed.LostResidency, ev.LostResident)
	}
	if ev.RestoredResident != 0 {
		t.Fatal("uncheckpointed kill restored residency")
	}
	// The lost residency reprices as extra cold misses after the kill.
	if killed.Misses <= base.Misses {
		t.Fatalf("faulted misses %d not above fault-free %d despite lost residency", killed.Misses, base.Misses)
	}
	// Wall absorbs the episodic bill on top of the cycle times.
	if killed.Wall <= base.Wall {
		t.Fatalf("faulted wall %g not above base %g", killed.Wall, base.Wall)
	}
}

// TestFaultCheckpointRestore: the same kill with checkpointing on
// preserves residency (restored, not lost) and prices the flushes and
// the replay back to the recovery point.
func TestFaultCheckpointRestore(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	plan := mustFaultPlan(t, "host1@10")
	dropped := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier, plan, 0))
	restored := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier, plan, 4))

	if restored.CheckpointTime <= 0 {
		t.Fatal("checkpoint flushes not priced")
	}
	if restored.LostResidency != 0 {
		t.Fatalf("checkpointed kill lost %d rows", restored.LostResidency)
	}
	if restored.Evac.RestoredResident == 0 {
		t.Fatal("checkpointed kill restored nothing")
	}
	// Restored residency means the post-kill Plans do NOT pay the cold
	// misses the uncheckpointed run does.
	if restored.Misses >= dropped.Misses {
		t.Fatalf("checkpointed misses %d not below uncheckpointed %d", restored.Misses, dropped.Misses)
	}
	// Checkpointing alone (no faults) prices flushes but changes no
	// cache statistic.
	clean := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier, hw.FaultPlan{}, 4))
	base := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier, hw.FaultPlan{}, 0))
	if clean.CheckpointTime <= 0 || clean.Availability != 1 {
		t.Fatalf("fault-free checkpointing: flush %g, availability %g", clean.CheckpointTime, clean.Availability)
	}
	if clean.Hits != base.Hits || clean.Misses != base.Misses || clean.Evictions != base.Evictions {
		t.Fatal("checkpointing changed cache behaviour without any fault")
	}
}

// TestFaultLinkPartitionDegrades: while hosts are partitioned the
// coordinator degrades to approx and sends no stamp-sync rounds, then
// heals with a priced stamp re-sync; a degrade event only reprices
// links.
func TestFaultLinkPartitionDegrades(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	base := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier, hw.FaultPlan{}, 0))
	cut := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier,
		mustFaultPlan(t, "link:host0-host1@8-16"), 0))

	if cut.Iters != base.Iters {
		t.Fatalf("partitioned run completed %d iters, want %d", cut.Iters, base.Iters)
	}
	if cut.Downtime <= 0 {
		t.Fatal("partition not detected")
	}
	// The degraded Plans (struck at the boundary before iteration 8 and
	// healed before 16) sync no stamps across the cut; one re-sync at
	// Heal does not make up for them.
	if cut.Coord.StampSyncRounds >= base.Coord.StampSyncRounds {
		t.Fatalf("partitioned run sent %d stamp-sync rounds, want fewer than the healthy run's %d",
			cut.Coord.StampSyncRounds, base.Coord.StampSyncRounds)
	}
	// Heal prices the stamp re-sync into recovery.
	if cut.RecoveryTime <= 0 {
		t.Fatal("post-heal stamp re-sync not priced")
	}
	if cut.Evac.Events != 0 {
		t.Fatal("partition evacuated shards")
	}

	// A degrade event keeps the links up: no downtime, no protocol
	// change, coordination just pays more while it lasts.
	slow := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier,
		mustFaultPlan(t, "degrade:host0-host1@8-16x8"), 0))
	if slow.Downtime != 0 || slow.RecoveryTime != 0 {
		t.Fatalf("degrade billed downtime %g / recovery %g", slow.Downtime, slow.RecoveryTime)
	}
	if slow.Coord.StampSyncRounds != base.Coord.StampSyncRounds {
		t.Fatalf("degrade switched protocols: %d stamp-sync rounds, want %d",
			slow.Coord.StampSyncRounds, base.Coord.StampSyncRounds)
	}
	if slow.CoordTime <= base.CoordTime {
		t.Fatalf("degraded links did not raise coordination: %g vs %g", slow.CoordTime, base.CoordTime)
	}
	if slow.Hits != base.Hits || slow.Misses != base.Misses || slow.Evictions != base.Evictions {
		t.Fatal("degrade changed cache behaviour")
	}
}

// TestFaultAggregatorReelection: losing a host aggregator triggers a
// priced re-election round under the hier protocol.
func TestFaultAggregatorReelection(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	rep := runSP(t, faultEnv(t, model, 4, topo, shard.CoordHier,
		mustFaultPlan(t, "agg0@10"), 0))
	if rep.Coord.ReelectRounds == 0 || rep.Coord.ReelectBytes <= 0 {
		t.Fatalf("re-election not metered: %+v", rep.Coord)
	}
	if rep.Downtime <= 0 || rep.RecoveryTime <= 0 {
		t.Fatalf("aggregator loss not billed: down %g recovery %g", rep.Downtime, rep.RecoveryTime)
	}
}

// TestFaultStrawman: the unpipelined dynamic engine survives the same
// kill (both engines share the orchestration).
func TestFaultStrawman(t *testing.T) {
	model := smallFaultModel()
	topo := hw.Cluster(2, 2)
	env := faultEnv(t, model, 4, topo, shard.CoordHier, mustFaultPlan(t, "host1@10"), 0)
	eng, err := NewStrawMan(env, 0.02, "lru")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(24)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryTime <= 0 || rep.LostResidency == 0 {
		t.Fatalf("strawman kill not recovered: recovery %g, lost %d", rep.RecoveryTime, rep.LostResidency)
	}
	if rep.Availability <= 0 || rep.Availability >= 1 {
		t.Fatalf("strawman availability %g, want in (0, 1)", rep.Availability)
	}
}
