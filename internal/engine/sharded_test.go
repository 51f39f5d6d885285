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

// metaEnv builds a metadata-mode environment with the given shard count.
func metaEnv(t *testing.T, model dlrm.Config, class trace.Class, shards int) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:   model,
		System:  hw.DefaultSystem(),
		Class:   class,
		Seed:    42,
		Workers: 2,
		Shards:  shards,
	})
	if err != nil {
		t.Fatalf("NewEnv(shards=%d): %v", shards, err)
	}
	return env
}

// TestShardsReportEquivalence is the engine-level half of the sharding
// acceptance criterion: the simulated Report — timing, stage averages,
// hit/miss/fill/eviction counts, reserve peaks — must be identical at
// every shard count, for both dynamic-cache engines.
func TestShardsReportEquivalence(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128

	builders := map[string]func(*Env) (Engine, error){
		"scratchpipe": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.02})
		},
		"scratchpipe-lookahead": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.02, EvictionLookahead: 5})
		},
		"strawman": func(e *Env) (Engine, error) { return NewStrawMan(e, 0.02, cache.LRU) },
		"static":   func(e *Env) (Engine, error) { return NewStaticCache(e, 0.02) },
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			var base *Report
			for _, shards := range []int{1, 2, 3, 4, 7} {
				eng, err := build(metaEnv(t, model, trace.Medium, shards))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				rep, err := eng.Run(20)
				if err != nil {
					t.Fatalf("shards=%d: Run: %v", shards, err)
				}
				if base == nil {
					base = rep
					continue
				}
				if !reflect.DeepEqual(base, rep) {
					t.Fatalf("report diverged at shards=%d:\nS=1 %+v\nS=%d %+v", shards, base, shards, rep)
				}
			}
		})
	}
}

// TestShardsFunctionalEquivalence extends the bitwise model-state
// equivalence claim to the sharded control plane: sharding changes which
// physical slot a row occupies, never its values or update order.
func TestShardsFunctionalEquivalence(t *testing.T) {
	const iters = 30
	base := newTestEnv(t, trace.Medium, 7)
	runAndFlush(t, NewHybrid(base), iters)

	for _, shards := range []int{2, 4} {
		env, err := NewEnv(EnvConfig{
			Model:      smallModel(),
			System:     hw.DefaultSystem(),
			Class:      trace.Medium,
			Seed:       7,
			Functional: true,
			Shards:     shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		runAndFlush(t, eng, iters)
		assertSameModelState(t, "sharded-scratchpipe", env, base)
	}
}

// placedEnv builds a metadata-mode environment with a shard placement.
func placedEnv(t *testing.T, model dlrm.Config, shards int, topo *hw.Topology, policy hw.PlacementPolicy) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:     model,
		System:    hw.DefaultSystem(),
		Class:     trace.Medium,
		Seed:      42,
		Workers:   2,
		Shards:    shards,
		Topology:  topo,
		Placement: policy,
	})
	if err != nil {
		t.Fatalf("NewEnv(topology=%v): %v", topo, err)
	}
	return env
}

// TestPlacementReportInvariance is the engine half of the placement
// acceptance criterion: cache behaviour (hits, misses, fills, evictions,
// reserve pressure) is identical across placements; only the modeled
// coordination latency — and therefore iteration time — may move. A
// single-node topology must reproduce the unplaced report exactly.
func TestPlacementReportInvariance(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128
	const shards = 4

	run := func(t *testing.T, env *Env) *Report {
		t.Helper()
		eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	base := run(t, metaEnv(t, model, trace.Medium, shards))
	if base.CoordTime != 0 {
		t.Fatalf("unplaced run reports coordination time %g", base.CoordTime)
	}

	// Degenerate placement: a single-node topology is the unplaced tree
	// bit for bit.
	single := run(t, placedEnv(t, model, shards, hw.SingleNode(), hw.PlaceStripe))
	if !reflect.DeepEqual(base, single) {
		t.Fatalf("single-node placement diverged:\nbase   %+v\nplaced %+v", base, single)
	}

	topo := hw.Cluster(2, 2)
	for _, policy := range hw.PlacementPolicies {
		rep := run(t, placedEnv(t, model, shards, topo, policy))
		if rep.Hits != base.Hits || rep.Misses != base.Misses ||
			rep.Fills != base.Fills || rep.Evictions != base.Evictions ||
			rep.ReservePeak != base.ReservePeak {
			t.Fatalf("placement %s changed cache behaviour:\nbase   %+v\nplaced %+v", policy, base, rep)
		}
		if rep.CoordTime <= 0 {
			t.Fatalf("placement %s on %s reports no coordination latency", policy, topo.Name)
		}
		if rep.IterTime <= base.IterTime {
			t.Fatalf("placement %s: iteration time %g not above unplaced %g despite coordination cost",
				policy, rep.IterTime, base.IterTime)
		}
	}

	// Crossing a slower tier must cost strictly more: NUMA < network
	// for the same placement shape.
	numa := run(t, placedEnv(t, model, shards, hw.MultiSocket(4), hw.PlaceStripe))
	net := run(t, placedEnv(t, model, shards, hw.Cluster(4, 1), hw.PlaceStripe))
	if numa.CoordTime <= 0 || net.CoordTime <= numa.CoordTime {
		t.Fatalf("tier penalty not monotone: numa %g, net %g", numa.CoordTime, net.CoordTime)
	}
}

// TestPlacementValidationEngine: unknown placement policies and invalid
// topologies must be rejected at environment construction.
func TestPlacementValidationEngine(t *testing.T) {
	if _, err := NewEnv(EnvConfig{
		Model:     smallModel(),
		System:    hw.DefaultSystem(),
		Placement: "bogus",
	}); err == nil {
		t.Fatal("unknown placement policy accepted by NewEnv")
	}
	bad := hw.NewTopology("bad", []hw.Node{{Name: "a"}, {Name: "b"}}, hw.TierNUMA)
	bad.SetLink(0, 1, hw.Link{Name: "x", Tier: hw.TierNUMA, Bandwidth: -1})
	if _, err := NewEnv(EnvConfig{
		Model:    smallModel(),
		System:   hw.DefaultSystem(),
		Topology: bad,
	}); err == nil {
		t.Fatal("invalid topology accepted by NewEnv")
	}
}

// TestShardsValidation: invalid shard configurations must be rejected at
// construction, not discovered mid-run.
func TestShardsValidation(t *testing.T) {
	if _, err := NewEnv(EnvConfig{
		Model:  smallModel(),
		System: hw.DefaultSystem(),
		Shards: -1,
	}); err == nil {
		t.Fatal("negative shard count accepted by NewEnv")
	}
	env := metaEnv(t, smallModel(), trace.Medium, 2)
	if _, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05, Policy: cache.LFU}); err == nil {
		t.Fatal("sharded LFU accepted (eviction coordinator is LRU-specific)")
	}
	if _, err := NewStrawMan(env, 0.05, cache.RandomPolicy); err == nil {
		t.Fatal("sharded random policy accepted")
	}
}

// coordEnv builds a metadata-mode environment with a cluster placement
// and the given coordination protocol.
func coordEnv(t *testing.T, model dlrm.Config, shards int, mode shard.CoordMode) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:     model,
		System:    hw.DefaultSystem(),
		Class:     trace.Medium,
		Seed:      42,
		Workers:   2,
		Shards:    shards,
		Topology:  hw.Cluster(2, 2),
		Placement: hw.PlaceStripe,
		Coord:     mode,
	})
	if err != nil {
		t.Fatalf("NewEnv(coord=%s): %v", mode, err)
	}
	return env
}

// TestCoordModeReportEquivalence is the engine half of the coordination
// tentpole: the hierarchical protocol leaves every cache statistic
// identical to exact while strictly reducing both coordination rounds
// and modeled coordination latency; approx drops traffic further still.
func TestCoordModeReportEquivalence(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128
	const shards = 4

	run := func(t *testing.T, env *Env) *Report {
		t.Helper()
		eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	exact := run(t, coordEnv(t, model, shards, shard.CoordExact))
	hier := run(t, coordEnv(t, model, shards, shard.CoordHier))
	approx := run(t, coordEnv(t, model, shards, shard.CoordApprox))

	if hier.Hits != exact.Hits || hier.Misses != exact.Misses ||
		hier.Fills != exact.Fills || hier.Evictions != exact.Evictions ||
		hier.ReservePeak != exact.ReservePeak {
		t.Fatalf("hier changed cache behaviour:\nexact %+v\nhier  %+v", exact, hier)
	}
	if exact.Coord.Messages < 5*hier.Coord.Messages {
		t.Fatalf("hier rounds %d not >=5x below exact's %d", hier.Coord.Messages, exact.Coord.Messages)
	}
	if !(exact.CoordTime > hier.CoordTime && hier.CoordTime > 0) {
		t.Fatalf("coordination latency not strictly decreasing: exact %g, hier %g",
			exact.CoordTime, hier.CoordTime)
	}
	if approx.Coord.Bytes() >= hier.Coord.Bytes() {
		t.Fatalf("approx traffic %g B not strictly below hier's %g B",
			approx.Coord.Bytes(), hier.Coord.Bytes())
	}
	if got, want := exact.CoordMode, string(shard.CoordExact); got != want {
		t.Fatalf("exact run labeled %q, want %q", got, want)
	}
	if got, want := hier.CoordMode, string(shard.CoordHier); got != want {
		t.Fatalf("hier run labeled %q, want %q", got, want)
	}
}

// TestCoordValidationEngine: unknown coordination modes are rejected
// at environment construction.
func TestCoordValidationEngine(t *testing.T) {
	if _, err := NewEnv(EnvConfig{
		Model:  smallModel(),
		System: hw.DefaultSystem(),
		Coord:  "gossip",
	}); err == nil {
		t.Fatal("unknown coordination mode accepted by NewEnv")
	}
}

// TestDynamicEnginesReportCoordWall: both dynamic-cache engines book a
// retired batch the same way, so whenever one prices serial coordination
// (CoordTime) it also reports the message plane's queued wall
// (CoordWallTime) for the same rounds.
func TestDynamicEnginesReportCoordWall(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 20_000
	model.BatchSize = 128
	for name, build := range map[string]func(*Env) (Engine, error){
		"strawman": func(e *Env) (Engine, error) { return NewStrawMan(e, 0.02, cache.LRU) },
		"scratchpipe": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.02})
		},
	} {
		eng, err := build(coordEnv(t, model, 4, shard.CoordHier))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := eng.Run(8)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if rep.CoordTime <= 0 {
			t.Fatalf("%s: priced no coordination on cluster2x2", name)
		}
		if rep.CoordWallTime <= 0 {
			t.Errorf("%s: CoordTime %g but CoordWallTime %g", name, rep.CoordTime, rep.CoordWallTime)
		}
	}
}
