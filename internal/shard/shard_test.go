package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/par"
)

// stream is a deterministic batch stream with a look-ahead window, shared
// by the equivalence harnesses.
type stream struct {
	batches [][]int64
	future  [][]int64
	hints   [][]int64
}

func newStream(seed int64, nbatches, batchLen int, idSpace int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{batches: make([][]int64, nbatches)}
	for i := range s.batches {
		ids := make([]int64, batchLen)
		for j := range ids {
			ids[j] = rng.Int63n(idSpace)
		}
		s.batches[i] = ids
	}
	return s
}

func (s *stream) at(seq int) []int64 { return s.batches[seq%len(s.batches)] }

// window projects the future and hint batches for seq.
func (s *stream) window(seq, futureWin, lookahead int) (future, hints [][]int64) {
	s.future = s.future[:0]
	s.hints = s.hints[:0]
	for k := 1; k <= futureWin; k++ {
		s.future = append(s.future, s.at(seq+k))
	}
	for k := futureWin + 1; k <= lookahead; k++ {
		s.hints = append(s.hints, s.at(seq+k))
	}
	return s.future, s.hints
}

// planner abstracts core.Scratchpad and Manager behind the subset of the
// lifecycle the equivalence tests drive.
type planner interface {
	PlanWithHints(seq int, ids []int64, future, hints [][]int64) (*core.PlanResult, error)
	Release(seq int) error
	Recycle(res *core.PlanResult)
	Prewarm(sample func() int64, onFill func(id int64, slot int32)) int
	Contains(id int64) bool
	Len() int
}

var _ planner = (*core.Scratchpad)(nil)
var _ planner = (*Manager)(nil)

func testConfig(slots, batchLen int) core.Config {
	cfg := core.Config{Slots: slots, Policy: cache.LRU, PastWindow: 3, FutureWindow: 2}
	cfg.Reserve = core.WorstCaseReserve(cfg, batchLen)
	return cfg
}

// samePlan compares everything except physical slot numbers (shards place
// rows in different slots; residency, eviction victims, and counters must
// be identical).
func samePlan(t *testing.T, label string, seq int, a, b *core.PlanResult) {
	t.Helper()
	if a.OccHits != b.OccHits || a.OccMisses != b.OccMisses {
		t.Fatalf("%s seq %d: occ hits/misses %d/%d vs %d/%d", label, seq, a.OccHits, a.OccMisses, b.OccHits, b.OccMisses)
	}
	if len(a.UniqueIDs) != len(b.UniqueIDs) {
		t.Fatalf("%s seq %d: unique count %d vs %d", label, seq, len(a.UniqueIDs), len(b.UniqueIDs))
	}
	for i := range a.UniqueIDs {
		if a.UniqueIDs[i] != b.UniqueIDs[i] {
			t.Fatalf("%s seq %d: unique ID %d: %d vs %d", label, seq, i, a.UniqueIDs[i], b.UniqueIDs[i])
		}
	}
	if len(a.Fills) != len(b.Fills) {
		t.Fatalf("%s seq %d: fills %d vs %d", label, seq, len(a.Fills), len(b.Fills))
	}
	for i := range a.Fills {
		if a.Fills[i].ID != b.Fills[i].ID {
			t.Fatalf("%s seq %d: fill %d: ID %d vs %d", label, seq, i, a.Fills[i].ID, b.Fills[i].ID)
		}
	}
	if len(a.Evictions) != len(b.Evictions) {
		t.Fatalf("%s seq %d: evictions %d vs %d", label, seq, len(a.Evictions), len(b.Evictions))
	}
	for i := range a.Evictions {
		if a.Evictions[i].OldID != b.Evictions[i].OldID {
			t.Fatalf("%s seq %d: eviction %d: victim %d vs %d (cross-shard LRU merge diverged from the global order)",
				label, seq, i, a.Evictions[i].OldID, b.Evictions[i].OldID)
		}
	}
	if a.ReserveAllocs != b.ReserveAllocs {
		t.Fatalf("%s seq %d: reserve allocs %d vs %d", label, seq, a.ReserveAllocs, b.ReserveAllocs)
	}
}

// driveLockstep runs the same stream through two planners, comparing every
// plan, with a pipeline-shaped Release/Recycle pattern (depth 4 = the
// paper's release-at-Train distance).
func driveLockstep(t *testing.T, label string, a, b planner, st *stream, iters, futureWin, lookahead int) {
	t.Helper()
	const depth = 4
	var pendA, pendB []*core.PlanResult
	for seq := 0; seq < iters; seq++ {
		future, hints := st.window(seq, futureWin, lookahead)
		ra, err := a.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatalf("%s seq %d: a.Plan: %v", label, seq, err)
		}
		rb, err := b.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatalf("%s seq %d: b.Plan: %v", label, seq, err)
		}
		samePlan(t, label, seq, ra, rb)
		pendA, pendB = append(pendA, ra), append(pendB, rb)
		if len(pendA) >= depth {
			old := seq - depth + 1
			if err := a.Release(old); err != nil {
				t.Fatalf("%s: a.Release(%d): %v", label, old, err)
			}
			if err := b.Release(old); err != nil {
				t.Fatalf("%s: b.Release(%d): %v", label, old, err)
			}
			a.Recycle(pendA[0])
			b.Recycle(pendB[0])
			pendA, pendB = pendA[1:], pendB[1:]
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: resident rows %d vs %d", label, a.Len(), b.Len())
	}
}

// TestConfigValidation covers the constructor edge cases, including the
// mid-config shard-count change the engines guard against.
func TestConfigValidation(t *testing.T) {
	base := testConfig(64, 16)
	if _, err := New(Config{Scratchpad: base, Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if err := (Config{Scratchpad: base, Shards: MaxShards}).Validate(); err != nil {
		t.Fatalf("MaxShards rejected: %v", err)
	}
	if _, err := New(Config{Scratchpad: base, Shards: MaxShards + 1}); err == nil {
		t.Fatal("shard count above MaxShards accepted (batch routing stores owners in 16 bits)")
	}
	lfu := base
	lfu.Policy = cache.LFU
	if _, err := New(Config{Scratchpad: lfu, Shards: 2}); err == nil {
		t.Fatal("sharded non-LRU policy accepted (the eviction coordinator is LRU-specific)")
	}
	if m, err := New(Config{Scratchpad: lfu, Shards: 1}); err != nil || m.Shards() != 1 {
		t.Fatalf("single-shard LFU should plan unsharded: %v", err)
	}
	if m, err := New(Config{Scratchpad: base}); err != nil || m.Shards() != 1 {
		t.Fatalf("zero shard count should default to 1: %v", err)
	}
	bad := base
	bad.Slots = 0
	if _, err := New(Config{Scratchpad: bad, Shards: 2}); err == nil {
		t.Fatal("invalid scratchpad config accepted")
	}
}

// TestSingleShardBitIdentical proves an S=1 manager is the
// unsharded planner under every replacement policy: identical plans
// including the physical slot numbers, and identical statistics.
func TestSingleShardBitIdentical(t *testing.T) {
	for _, policy := range []cache.PolicyKind{cache.LRU, cache.LFU, cache.RandomPolicy} {
		t.Run(string(policy), func(t *testing.T) {
			cfg := testConfig(256, 64)
			cfg.Policy, cfg.PolicySeed = policy, 5
			sp, err := core.NewScratchpad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(Config{Scratchpad: cfg, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			st := newStream(11, 64, 64, int64(256*4))
			const depth = 4
			var pendA, pendB []*core.PlanResult
			for seq := 0; seq < 100; seq++ {
				future, hints := st.window(seq, 2, 6)
				ra, err := sp.PlanWithHints(seq, st.at(seq), future, hints)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := m.PlanWithHints(seq, st.at(seq), future, hints)
				if err != nil {
					t.Fatal(err)
				}
				samePlan(t, "s1", seq, ra, rb)
				for i := range ra.Slots {
					if ra.Slots[i] != rb.Slots[i] {
						t.Fatalf("seq %d: slot %d: %d vs %d (S=1 must be bit-identical)", seq, i, ra.Slots[i], rb.Slots[i])
					}
				}
				if sp.Stats() != m.Stats() {
					t.Fatalf("seq %d: stats diverged:\ncore    %+v\nmanager %+v", seq, sp.Stats(), m.Stats())
				}
				pendA, pendB = append(pendA, ra), append(pendB, rb)
				if len(pendA) >= depth {
					old := seq - depth + 1
					if err := sp.Release(old); err != nil {
						t.Fatal(err)
					}
					if err := m.Release(old); err != nil {
						t.Fatal(err)
					}
					sp.Recycle(pendA[0])
					m.Recycle(pendB[0])
					pendA, pendB = pendA[1:], pendB[1:]
				}
			}
			if sp.Stats().Evictions == 0 {
				t.Fatal("stream never evicted: the replacement policy went unexercised")
			}
		})
	}
}

// TestShardedEquivalence is the tentpole property: at every shard count,
// with and without a worker pool, the sharded manager must emit the same
// plans, the same eviction victims in the same order, and the same
// aggregate statistics as the unsharded planner.
func TestShardedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shards    int
		workers   int
		lookahead int
	}{
		{"S2-serial", 2, 1, 0},
		{"S3-hints", 3, 1, 6},
		{"S4-parallel", 4, 4, 0},
		{"S4-parallel-hints", 4, 4, 6},
		{"S7-parallel", 7, 3, 0},
		{"S7-parallel-hints", 7, 3, 6},
		{"S8-parallel", 8, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(512, 96)
			sp, err := core.NewScratchpad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(Config{Scratchpad: cfg, Shards: tc.shards, Pool: par.New(tc.workers)})
			if err != nil {
				t.Fatal(err)
			}
			st := newStream(int64(tc.shards)*100+7, 96, 96, int64(512*4))
			driveLockstep(t, tc.name, sp, m, st, 150, 2, tc.lookahead)
			if sp.Stats() != m.Stats() {
				t.Fatalf("stats diverged:\ncore    %+v\nsharded %+v", sp.Stats(), m.Stats())
			}
		})
	}
}

// TestPrewarmEquivalence: a prewarmed sharded manager must hold exactly
// the rows the unsharded planner would hold from the same draw stream.
func TestPrewarmEquivalence(t *testing.T) {
	cfg := testConfig(512, 64)
	sp, err := core.NewScratchpad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Scratchpad: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(3))
	rngB := rand.New(rand.NewSource(3))
	const idSpace = 2048
	na := sp.Prewarm(func() int64 { return rngA.Int63n(idSpace) }, nil)
	nb := m.Prewarm(func() int64 { return rngB.Int63n(idSpace) }, nil)
	if na != nb {
		t.Fatalf("prewarm inserted %d vs %d rows", na, nb)
	}
	if sp.Len() != m.Len() {
		t.Fatalf("resident %d vs %d", sp.Len(), m.Len())
	}
	for id := int64(0); id < idSpace; id++ {
		if sp.Contains(id) != m.Contains(id) {
			t.Fatalf("id %d: residency %v vs %v", id, sp.Contains(id), m.Contains(id))
		}
	}
	// The warm content must then evolve identically under planning.
	st := newStream(17, 48, 64, idSpace)
	driveLockstep(t, "prewarmed", sp, m, st, 80, 2, 0)
}

// TestMoreShardsThanIDs: S far above the distinct-ID population must
// still work — most shards stay empty, aggregate behaviour is unchanged.
func TestMoreShardsThanIDs(t *testing.T) {
	cfg := testConfig(64, 16)
	sp, err := core.NewScratchpad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Scratchpad: cfg, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(23, 16, 16, 10) // only 10 distinct IDs in the universe
	driveLockstep(t, "tiny", sp, m, st, 40, 2, 0)
	if sp.Stats() != m.Stats() {
		t.Fatalf("stats diverged:\ncore    %+v\nsharded %+v", sp.Stats(), m.Stats())
	}
	if got := m.Len(); got > 10 {
		t.Fatalf("resident %d rows, universe has 10", got)
	}
	empty, queried := 0, 0
	for _, ss := range m.ShardStats() {
		if ss.Queries == 0 && ss.Resident == 0 {
			empty++
		} else {
			queried++
		}
	}
	if queried == 0 || empty == 0 {
		t.Fatalf("expected a mix of empty and populated shards with 10 IDs on 32 shards, got %d empty / %d populated", empty, queried)
	}
}

// TestFuzzStatsEquivalence is a lockstep over random configurations and
// random traces: core.Scratchpad against a manager at a rotating
// non-trivial shard count (including the non-power-of-two 3 and 7).
// Trials draw a past window from 0 to 3 (a past window narrower than
// the future window re-stamps every pin each Plan), give half of them
// deep look-ahead hints, and under-provision a third to a quarter of
// the worst-case reserve, so reserve allocation, its peak and the
// exhaustion error run too. Every trial must agree plan by plan, fail
// on the same batch if it fails, and end with identical statistics.
func TestFuzzStatsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shardCounts := []int{4, 3, 7, 2}
	exhausted := 0
	for trial := 0; trial < 60; trial++ {
		slots := 64 + rng.Intn(512)
		batchLen := 16 + rng.Intn(96)
		idSpace := int64(slots/2 + rng.Intn(slots*6))
		shards := shardCounts[trial%len(shardCounts)]
		cfg := core.Config{
			Slots:        slots,
			Policy:       cache.LRU,
			PastWindow:   rng.Intn(4),
			FutureWindow: rng.Intn(3),
		}
		cfg.Reserve = core.WorstCaseReserve(cfg, batchLen)
		if trial%3 == 0 {
			cfg.Reserve /= 4
		}
		lookahead := 0
		if trial%2 == 1 {
			lookahead = cfg.FutureWindow + 1 + rng.Intn(4)
		}
		label := fmt.Sprintf("trial %d (slots %d reserve %d, batch %d, ids %d, past %d, future %d, lookahead %d, S=%d)",
			trial, slots, cfg.Reserve, batchLen, idSpace, cfg.PastWindow, cfg.FutureWindow, lookahead, shards)
		sp, err := core.NewScratchpad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mS, err := New(Config{Scratchpad: cfg, Shards: shards, Pool: par.New(2)})
		if err != nil {
			t.Fatal(err)
		}
		planners := []planner{sp, mS}
		st := newStream(rng.Int63(), 32, batchLen, idSpace)
		depth := cfg.PastWindow + 1
		pend := make([][]*core.PlanResult, len(planners))
		for seq := 0; seq < 60; seq++ {
			future, hints := st.window(seq, cfg.FutureWindow, lookahead)
			res := make([]*core.PlanResult, len(planners))
			errs := make([]error, len(planners))
			for p, pl := range planners {
				res[p], errs[p] = pl.PlanWithHints(seq, st.at(seq), future, hints)
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("%s seq %d: errors diverged: core %v / S=%d %v", label, seq, errs[0], shards, errs[1])
			}
			if errs[0] != nil {
				exhausted++
				break
			}
			samePlan(t, label, seq, res[0], res[1])
			if sp.Stats() != mS.Stats() {
				t.Fatalf("%s seq %d: stats diverged:\ncore %+v\nS=%d  %+v", label, seq, sp.Stats(), shards, mS.Stats())
			}
			for p := range planners {
				pend[p] = append(pend[p], res[p])
				if len(pend[p]) >= depth {
					if err := planners[p].Release(seq - depth + 1); err != nil {
						t.Fatalf("%s: planner %d: Release(%d): %v", label, p, seq-depth+1, err)
					}
					planners[p].Recycle(pend[p][0])
					pend[p] = pend[p][1:]
				}
			}
		}
		if sp.Stats() != mS.Stats() {
			t.Fatalf("%s: final stats diverged:\ncore %+v\nS=%d  %+v", label, sp.Stats(), shards, mS.Stats())
		}
	}
	t.Logf("%d of 60 trials reached the exhaustion error", exhausted)
}

// TestReleaseErrors: the per-shard FIFO discipline must reject
// out-of-order and spurious releases like the unsharded planner.
func TestReleaseErrors(t *testing.T) {
	cfg := testConfig(64, 16)
	m, err := New(Config{Scratchpad: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(0); err == nil {
		t.Fatal("release with no in-flight batches succeeded")
	}
	st := newStream(5, 8, 16, 128)
	if _, err := m.Plan(0, st.at(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Plan(1, st.at(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(1); err == nil {
		t.Fatal("out-of-order release succeeded")
	}
	if err := m.Release(0); err != nil {
		t.Fatalf("FIFO release failed: %v", err)
	}
	if m.InFlight() != 1 {
		t.Fatalf("in-flight %d, want 1", m.InFlight())
	}
}

// TestShardBalance sanity-checks the hash partition: over a large uniform
// ID space every shard should see a non-trivial share of the queries.
func TestShardBalance(t *testing.T) {
	cfg := testConfig(1024, 256)
	m, err := New(Config{Scratchpad: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(41, 32, 256, 8192)
	var pend []*core.PlanResult
	for seq := 0; seq < 40; seq++ {
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
	stats := m.ShardStats()
	total := int64(0)
	for _, ss := range stats {
		total += ss.Queries
	}
	for j, ss := range stats {
		if ss.Queries < total/16 {
			t.Fatalf("shard %d saw %d of %d queries: hash partition badly skewed", j, ss.Queries, total)
		}
	}
}

// TestPlanWarmZeroAllocs is the sharded twin of core's hot-path guard:
// once its pools and buffers have warmed up, a full Plan/Release/Recycle
// cycle of an S=4 manager striped over cluster2x2, with a future window,
// must not allocate under any coordination protocol, nor as a single
// shard, nor as one resharded from 4 to 1 with batches in flight. The
// pool is serial (nil), so every allocation counted is the planner's own;
// a capturing closure handed to the shard fan-out would show up here as
// one per call.
func TestPlanWarmZeroAllocs(t *testing.T) {
	const slots, batchLen, depth = 2048, 512, 3
	pl, err := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 2), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// reshardAt steps a case to one shard before that Plan (0: never).
	type allocCase struct {
		cfg       Config
		reshardAt int
	}
	cases := map[string]allocCase{
		"S1":       {Config{Shards: 1}, 0},
		"S4-to-S1": {Config{Shards: 4, Placement: pl, Coord: CoordHier}, 100},
	}
	for _, mode := range CoordModes {
		cases[string(mode)] = allocCase{Config{Shards: 4, Placement: pl, Coord: mode}, 0}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Scratchpad = testConfig(slots, batchLen)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := newStream(99, 64, batchLen, 4*slots)
			pending := make([]*core.PlanResult, 0, depth)
			seq := 0
			step := func() {
				if tc.reshardAt > 0 && seq == tc.reshardAt {
					if err := m.Reshard(1, hw.Placement{}); err != nil {
						t.Fatal(err)
					}
				}
				future, _ := st.window(seq, 2, 0)
				res, err := m.Plan(seq, st.at(seq), future)
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, res)
				if len(pending) == depth {
					if err := m.Release(seq - depth + 1); err != nil {
						t.Fatal(err)
					}
					m.Recycle(pending[0])
					pending = append(pending[:0], pending[1:]...)
				}
				seq++
			}
			for i := 0; i < 200; i++ { // warm every pool and slice capacity
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("warm sharded Plan cycle allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// BenchmarkPlanSharded measures the steady-state sharded Plan cycle at
// several shard counts (S=1 is the unsharded core pass); the
// hot-path JSON history records the same scaling on the full sweep.
func BenchmarkPlanSharded(b *testing.B) {
	for _, tc := range []struct {
		name    string
		shards  int
		workers int
	}{
		{"S=1", 1, 1},
		{"S=2", 2, 2},
		{"S=4", 4, 4},
		{"S=8", 8, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := testConfig(8192, 2048)
			m, err := New(Config{Scratchpad: cfg, Shards: tc.shards, Pool: par.New(tc.workers)})
			if err != nil {
				b.Fatal(err)
			}
			st := newStream(9, 64, 2048, int64(8192*4))
			var pend []*core.PlanResult
			seq := 0
			step := func() {
				future, _ := st.window(seq, 2, 0)
				res, err := m.PlanWithHints(seq, st.at(seq), future, nil)
				if err != nil {
					b.Fatal(err)
				}
				pend = append(pend, res)
				if len(pend) >= 4 {
					if err := m.Release(seq - 3); err != nil {
						b.Fatal(err)
					}
					m.Recycle(pend[0])
					pend = pend[1:]
				}
				seq++
			}
			for i := 0; i < 50; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
