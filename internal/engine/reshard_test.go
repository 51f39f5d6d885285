package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/trace"
)

// TestParseReshardSpec pins the -reshard grammar, its canonical String
// rendering, and its rejections.
func TestParseReshardSpec(t *testing.T) {
	good := []struct {
		in, canon string
		spec      ReshardSpec
	}{
		{"", "", ReshardSpec{}},
		{"200:4", "200:4", ReshardSpec{Steps: []ReshardStep{{200, 4}}}},
		{"200:4,500:8", "200:4,500:8", ReshardSpec{Steps: []ReshardStep{{200, 4}, {500, 8}}}},
		{"0:1", "0:1", ReshardSpec{Steps: []ReshardStep{{0, 1}}}},
		{"load:8", "load:8", ReshardSpec{LoadMax: 8}},
		{"load:8:2.5", "load:8:2.5", ReshardSpec{LoadMax: 8, LoadThresh: 2.5}},
		{"200:4,load:8", "200:4,load:8", ReshardSpec{Steps: []ReshardStep{{200, 4}}, LoadMax: 8}},
		{" 200:4 , 500:8 ", "200:4,500:8", ReshardSpec{Steps: []ReshardStep{{200, 4}, {500, 8}}}},
	}
	for _, tc := range good {
		spec, err := ParseReshardSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseReshardSpec(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(spec, tc.spec) {
			t.Fatalf("ParseReshardSpec(%q) = %+v, want %+v", tc.in, spec, tc.spec)
		}
		if got := spec.String(); got != tc.canon {
			t.Fatalf("ParseReshardSpec(%q).String() = %q, want %q", tc.in, got, tc.canon)
		}
		if reparsed, err := ParseReshardSpec(spec.String()); err != nil || !reflect.DeepEqual(reparsed, spec) {
			t.Fatalf("String round-trip of %q failed: %+v, %v", tc.in, reparsed, err)
		}
	}
	bad := []string{
		"abc", "200", "200:", ":4", "200:0", "200:-1", "-5:4",
		"500:8,200:4", "200:4,200:8", // non-ascending
		"load", "load:1", "load:x", "load:8:0.5", "load:8:abc", "load:4,load:8",
	}
	for _, in := range bad {
		if _, err := ParseReshardSpec(in); err == nil {
			t.Fatalf("ParseReshardSpec(%q) accepted", in)
		}
	}
	if (ReshardSpec{}).Active() {
		t.Fatal("zero spec active")
	}
	if got := (ReshardSpec{Steps: []ReshardStep{{10, 4}}, LoadMax: 8}).MaxShards(); got != 8 {
		t.Fatalf("MaxShards = %d, want 8", got)
	}
}

// reshardEnv builds a metadata-mode environment with a reshard spec.
func reshardEnv(t *testing.T, model dlrm.Config, shards int, topo *hw.Topology, spec ReshardSpec) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Model:     model,
		System:    hw.DefaultSystem(),
		Class:     trace.Medium,
		Seed:      42,
		Workers:   2,
		Shards:    shards,
		Topology:  topo,
		Placement: hw.PlaceStripe,
		Reshard:   spec,
	})
	if err != nil {
		t.Fatalf("NewEnv(reshard=%q): %v", spec, err)
	}
	return env
}

// runSP runs a ScratchPipe engine over env for 24 iterations.
func runSP(t *testing.T, env *Env) *Report {
	t.Helper()
	eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(24)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// scrubReshard zeroes the fields that only exist because a reshard
// schedule ran (event bookkeeping), leaving everything a same-S priced
// no-op must preserve — including MigrationTime, which must be zero.
func scrubReshard(rep *Report) *Report {
	c := *rep
	c.Resharding = shardReshardStatsZero
	c.FinalShards = 0
	return &c
}

var shardReshardStatsZero = (&Report{}).Resharding

// TestReshardSameSReportNoOp: a schedule that reshards to the current
// shard count mid-run must leave the engine report bit-identical to a
// run that never resharded — timing, stage averages, coordination, and
// cache statistics — with zero migration cost.
func TestReshardSameSReportNoOp(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128

	spec, err := ParseReshardSpec("10:4")
	if err != nil {
		t.Fatal(err)
	}
	base := runSP(t, reshardEnv(t, model, 4, nil, ReshardSpec{}))
	resharded := runSP(t, reshardEnv(t, model, 4, nil, spec))
	if got := resharded.Resharding.Events; got != int64(model.NumTables) {
		t.Fatalf("reshard events %d, want one per table (%d)", got, model.NumTables)
	}
	if resharded.MigrationTime != 0 {
		t.Fatalf("same-S co-located reshard priced %g", resharded.MigrationTime)
	}
	if resharded.FinalShards != 4 {
		t.Fatalf("final shards %d, want 4", resharded.FinalShards)
	}
	if !reflect.DeepEqual(base, scrubReshard(resharded)) {
		t.Fatalf("same-S reshard changed the report:\nbase      %+v\nresharded %+v", base, resharded)
	}
}

// TestReshardReportEquivalence: a run resharding S=1 -> 4 -> 2 must
// keep every cache statistic identical to an unresharded run — sharding
// (and resharding) is a pure decomposition — with zero migration cost
// while co-located.
func TestReshardReportEquivalence(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128

	spec, err := ParseReshardSpec("8:4,16:2")
	if err != nil {
		t.Fatal(err)
	}
	base := runSP(t, reshardEnv(t, model, 1, nil, ReshardSpec{}))
	resharded := runSP(t, reshardEnv(t, model, 1, nil, spec))
	if resharded.Hits != base.Hits || resharded.Misses != base.Misses ||
		resharded.Fills != base.Fills || resharded.Evictions != base.Evictions ||
		resharded.ReservePeak != base.ReservePeak {
		t.Fatalf("resharding changed cache behaviour:\nbase      %+v\nresharded %+v", base, resharded)
	}
	if resharded.MigrationTime != 0 {
		t.Fatalf("co-located migration priced %g", resharded.MigrationTime)
	}
	if resharded.FinalShards != 2 {
		t.Fatalf("final shards %d, want 2", resharded.FinalShards)
	}
	if resharded.Resharding.ResidentMoved == 0 || resharded.Resharding.HoldsMoved == 0 {
		t.Fatalf("no state re-bucketed: %+v", resharded.Resharding)
	}
}

// TestReshardMigrationPriced is the acceptance criterion: scaling
// S=1 -> 4 across cluster2x2 mid-run must report MigrationTime > 0
// while preserving every cache statistic (no row loss anywhere), and
// the migration stall must extend Wall beyond the per-iteration sum.
func TestReshardMigrationPriced(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128

	spec, err := ParseReshardSpec("10:4")
	if err != nil {
		t.Fatal(err)
	}
	topo := hw.Cluster(2, 2)
	base := runSP(t, reshardEnv(t, model, 1, topo, ReshardSpec{}))
	resharded := runSP(t, reshardEnv(t, model, 1, topo, spec))
	if resharded.Hits != base.Hits || resharded.Misses != base.Misses ||
		resharded.Fills != base.Fills || resharded.Evictions != base.Evictions ||
		resharded.ReservePeak != base.ReservePeak {
		t.Fatalf("distributed resharding changed cache behaviour:\nbase      %+v\nresharded %+v", base, resharded)
	}
	if resharded.MigrationTime <= 0 {
		t.Fatal("cross-node migration not priced")
	}
	if resharded.MigrationTime != resharded.Resharding.Seconds {
		t.Fatalf("MigrationTime %g != Resharding.Seconds %g", resharded.MigrationTime, resharded.Resharding.Seconds)
	}
	if resharded.Resharding.Bytes <= 0 || resharded.Resharding.Rounds <= 0 {
		t.Fatalf("migration traffic not metered: %+v", resharded.Resharding)
	}
	// After the boundary the S=4 placement pays coordination the S=1
	// run never did.
	if resharded.CoordTime <= base.CoordTime {
		t.Fatalf("post-reshard coordination %g not above base %g", resharded.CoordTime, base.CoordTime)
	}
	// Migration must also not be free on the clock: Wall includes it on
	// top of the cycle times.
	if resharded.Wall <= base.Wall {
		t.Fatalf("resharded wall %g not above base %g despite coordination + migration", resharded.Wall, base.Wall)
	}
}

// TestReshardStrawman: the unpipelined dynamic engine reshard-steps the
// same way (both dynamic-cache engines share the machinery).
func TestReshardStrawman(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128

	spec, err := ParseReshardSpec("8:4")
	if err != nil {
		t.Fatal(err)
	}
	run := func(env *Env) *Report {
		t.Helper()
		eng, err := NewStrawMan(env, 0.02, cache.LRU)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(reshardEnv(t, model, 1, hw.Cluster(2, 2), ReshardSpec{}))
	resharded := run(reshardEnv(t, model, 1, hw.Cluster(2, 2), spec))
	if resharded.Hits != base.Hits || resharded.Misses != base.Misses || resharded.Evictions != base.Evictions {
		t.Fatalf("strawman resharding changed cache behaviour:\nbase      %+v\nresharded %+v", base, resharded)
	}
	if resharded.MigrationTime <= 0 || resharded.FinalShards != 4 {
		t.Fatalf("strawman reshard not executed/priced: mig %g, final shards %d",
			resharded.MigrationTime, resharded.FinalShards)
	}
}

// TestReshardFunctionalEquivalence extends the bitwise model-state
// guarantee across reshard boundaries: growing and shrinking the shard
// count mid-training must not change a single trained float.
func TestReshardFunctionalEquivalence(t *testing.T) {
	const iters = 30
	base := newTestEnv(t, trace.Medium, 7)
	runAndFlush(t, NewHybrid(base), iters)

	spec, err := ParseReshardSpec("8:4,16:2")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvConfig{
		Model:      smallModel(),
		System:     hw.DefaultSystem(),
		Class:      trace.Medium,
		Seed:       7,
		Functional: true,
		Reshard:    spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rep := runAndFlush(t, eng, iters)
	if rep.FinalShards != 2 || rep.Resharding.Events == 0 {
		t.Fatalf("schedule did not execute: %+v", rep.Resharding)
	}
	assertSameModelState(t, "resharded-scratchpipe", env, base)
}

// TestReshardLoadPolicy: the load-triggered policy must grow the shard
// count on a skewed locality class and hold still on a uniform one.
func TestReshardLoadPolicy(t *testing.T) {
	spec := ReshardSpec{LoadMax: 4}
	// Big enough batches that every check window clears the policy's
	// minimum-sample guard (smallModel's windows are all noise).
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 256
	run := func(class trace.Class) *Report {
		t.Helper()
		env, err := NewEnv(EnvConfig{
			Model:    model,
			System:   hw.DefaultSystem(),
			Class:    class,
			Seed:     42,
			Topology: hw.MultiSocket(4),
			Reshard:  spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// The High run's growth is pinned exactly: the histogram must see the
	// same batches at the same point, so the policy fires on the same
	// iterations and prices the same migrations.
	hot := run(trace.High)
	if hot.FinalShards != 4 {
		t.Fatalf("load policy on High locality ended at %d shards, want 4", hot.FinalShards)
	}
	if want := 8.721620000000001e-05; hot.MigrationTime != want {
		t.Fatalf("load-triggered migration time %v, want %v", hot.MigrationTime, want)
	}
	uniform := run(trace.Random)
	if uniform.FinalShards != 1 {
		t.Fatalf("load policy grew to %d shards on a uniform trace", uniform.FinalShards)
	}
}

// TestReshardValidationEngine: malformed schedules and policy
// conflicts are rejected at construction, not mid-run.
func TestReshardValidationEngine(t *testing.T) {
	if _, err := NewEnv(EnvConfig{
		Model:   smallModel(),
		System:  hw.DefaultSystem(),
		Reshard: ReshardSpec{Steps: []ReshardStep{{Iter: 5, Shards: 0}}},
	}); err == nil {
		t.Fatal("zero-shard reshard step accepted by NewEnv")
	}
	if _, err := NewEnv(EnvConfig{
		Model:   smallModel(),
		System:  hw.DefaultSystem(),
		Reshard: ReshardSpec{LoadMax: 1},
	}); err == nil {
		t.Fatal("load cap 1 accepted by NewEnv")
	}
	env := reshardEnv(t, smallModel(), 1, nil, ReshardSpec{Steps: []ReshardStep{{Iter: 5, Shards: 4}}})
	if _, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05, Policy: cache.LFU}); err == nil {
		t.Fatal("reshard schedule with LFU accepted (migration is LRU-specific)")
	}
	if _, err := NewStrawMan(env, 0.05, cache.RandomPolicy); err == nil {
		t.Fatal("reshard schedule with random policy accepted")
	}
	// A schedule that never leaves one shard still migrates LRU state.
	env = reshardEnv(t, smallModel(), 1, nil, ReshardSpec{Steps: []ReshardStep{{Iter: 3, Shards: 1}}})
	if _, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.05, Policy: cache.LFU}); err == nil {
		t.Fatal("one-shard reshard schedule with LFU accepted")
	}
}

// TestLoadHistogram: the load policy's per-table histograms bucket the
// query mass at the fixed granularity whatever the shard count, and a
// hot stream reads as skewed while a uniform one does not.
func TestLoadHistogram(t *testing.T) {
	// A threshold no skew reaches keeps both runs at their starting S.
	loads := func(shards int) [][]int64 {
		env := reshardEnv(t, smallModel(), shards, hw.MultiSocket(4), ReshardSpec{LoadMax: 8, LoadThresh: 1e9})
		eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(24); err != nil {
			t.Fatal(err)
		}
		return eng.dyn.loads
	}
	one, four := loads(1), loads(4)
	for tbl, h := range one {
		if len(h) != loadBuckets {
			t.Fatalf("table %d histogram has %d buckets, want %d", tbl, len(h), loadBuckets)
		}
		var mass int64
		for _, v := range h {
			mass += v
		}
		if mass == 0 {
			t.Fatalf("table %d histogram saw no query mass", tbl)
		}
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatal("histograms differ between S=1 and S=4 (they must not depend on the shard count)")
	}

	skewOf := func(uniq []int64, cnt []int32) float64 {
		d := &dynamicState{loads: [][]int64{make([]int64, loadBuckets)}}
		d.observeLoad(0, uniq, cnt)
		return d.probeSkew()
	}
	// Enough draws that uniform noise stays well under the default
	// skew threshold at this granularity (~32 per bucket).
	uniform := make([]int64, 32768)
	rng := newSeededRand(1)
	for i := range uniform {
		uniform[i] = rng.Int63n(1 << 30)
	}
	// Three hot IDs carry all the mass.
	u, h := skewOf(uniform, nil), skewOf([]int64{0, 1, 2}, []int32{10923, 10923, 10922})
	if u > 2 {
		t.Fatalf("uniform stream skew %g > 2", u)
	}
	if h < 8 {
		t.Fatalf("hot stream skew %g < 8", h)
	}
}
