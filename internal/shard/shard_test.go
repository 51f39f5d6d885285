package shard

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"strings"
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
			t.Fatalf("%s seq %d: eviction %d: victim %d vs %d", label, seq, i, a.Evictions[i].OldID, b.Evictions[i].OldID)
		}
	}
	if a.ReserveAllocs != b.ReserveAllocs {
		t.Fatalf("%s seq %d: reserve allocs %d vs %d", label, seq, a.ReserveAllocs, b.ReserveAllocs)
	}
}

// lockstep drives st through the reference and every manager in ms with
// the pipeline's release pattern: after Plan seq, batch seq-depth+1 is
// released (and a manager recycles its plan). Every Plan must agree with
// the reference on the plan, on whether it fails and on the statistics
// after it; a manager that has had one shard all along must also place
// every row in the reference's slot. before, when non-nil, runs ahead of
// each Plan. At the end every manager must hold exactly the reference's
// rows. lockstep reports whether the run stopped at a failed Plan.
func lockstep(t *testing.T, label string, ref *reference, ms []*Manager, st *stream, iters, futureWin, lookahead, depth int, before func(seq int)) bool {
	t.Helper()
	pend := make([][]*core.PlanResult, len(ms))
	failed := false
	for seq := 0; seq < iters && !failed; seq++ {
		if before != nil {
			before(seq)
		}
		future, hints := st.window(seq, futureWin, lookahead)
		want, wantErr := ref.PlanWithHints(seq, st.at(seq), future, hints)
		failed = wantErr != nil
		for i, m := range ms {
			at := fmt.Sprintf("%s S=%d", label, m.Shards())
			got, err := m.PlanWithHints(seq, st.at(seq), future, hints)
			if (err != nil) != failed {
				t.Fatalf("%s seq %d: error %v, reference %v", at, seq, err, wantErr)
			}
			if m.Stats() != ref.stats {
				t.Fatalf("%s seq %d: stats diverged:\nreference %+v\nmanager   %+v", at, seq, ref.stats, m.Stats())
			}
			if failed {
				continue
			}
			samePlan(t, at, seq, want, got)
			if m.Shards() == 1 && m.ReshardStats().Events == 0 && !slices.Equal(want.Slots, got.Slots) {
				t.Fatalf("%s seq %d: slots %v, reference %v", at, seq, got.Slots, want.Slots)
			}
			if pend[i] = append(pend[i], got); len(pend[i]) >= depth {
				if err := m.Release(seq - depth + 1); err != nil {
					t.Fatalf("%s: Release(%d): %v", at, seq-depth+1, err)
				}
				m.Recycle(pend[i][0])
				pend[i] = pend[i][1:]
			}
		}
		if !failed && seq >= depth-1 {
			if err := ref.Release(seq - depth + 1); err != nil {
				t.Fatalf("%s: reference Release(%d): %v", label, seq-depth+1, err)
			}
		}
	}
	for _, m := range ms {
		if m.Len() != len(ref.slotOf) {
			t.Fatalf("%s S=%d: resident rows %d, reference %d", label, m.Shards(), m.Len(), len(ref.slotOf))
		}
		m.ForEach(func(id int64, _ int32) {
			if _, ok := ref.slotOf[id]; !ok {
				t.Fatalf("%s S=%d: row %d resident, not in the reference", label, m.Shards(), id)
			}
		})
	}
	return failed
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

// TestOutOfRangeID checks that an ID outside the table's rows fails the
// Plan with an error naming the batch and the ID, at one shard and at
// four, while a window ID out of range is merely absent; that without a
// row count only negative IDs are rejected and the Hit-Map grows; and
// that Prewarm panics on such a draw. The batches go in as distinct-ID
// lists, the engines' form (the occurrence form's intmap.Dedup panics on
// a negative ID before the Plan starts).
func TestOutOfRangeID(t *testing.T) {
	const rows = 100
	for _, s := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", s), func(t *testing.T) {
			cfg := testConfig(16, 8)
			cfg.Rows = rows
			newMgr := func(cfg core.Config) *Manager {
				m, err := New(Config{Scratchpad: cfg, Shards: s})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m := newMgr(cfg)
			plan := func(seq int, uniq []int64, future [][]int64) (*core.PlanResult, error) {
				return m.PlanUniqueWithHints(seq, uniq, nil, future, nil)
			}
			// The batch's IDs reach the planner deduplicated (the
			// native form) or as an occurrence stream through Plan.
			planners := []struct {
				name string
				plan func(seq int, ids []int64) (*core.PlanResult, error)
			}{
				{"PlanUniqueWithHints", func(seq int, ids []int64) (*core.PlanResult, error) { return plan(seq, ids, nil) }},
				{"Plan", func(seq int, ids []int64) (*core.PlanResult, error) { return m.Plan(seq, ids, nil) }},
			}
			if _, err := plan(0, []int64{1, 2}, [][]int64{{rows, -5, 1 << 40}}); err != nil {
				t.Fatalf("window IDs out of range should be absent: %v", err)
			}
			seq := 1
			for _, p := range planners {
				for _, id := range []int64{rows, -1, 1 << 40} {
					_, err := p.plan(seq, []int64{3, id})
					want := fmt.Sprintf("plan %d: ", seq)
					if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("sparse ID %d ", id)) {
						t.Fatalf("%s: id %d: got %v, want an error naming %q and the ID", p.name, id, err, want)
					}
					seq++
				}
			}

			cfg.Rows = 0
			for _, p := range planners {
				m = newMgr(cfg)
				if _, err := p.plan(0, []int64{-2}); err == nil || !strings.Contains(err.Error(), "plan 0: negative sparse ID -2") {
					t.Fatalf("%s: negative id without rows: got %v", p.name, err)
				}
			}
			m = newMgr(cfg)
			res, err := plan(0, []int64{5, 1 << 20}, nil)
			if err != nil || len(res.Fills) != 2 || !m.Contains(1<<20) || m.Contains(1<<21) {
				t.Fatalf("unbounded rows: err %v, fills %v", err, res)
			}

			cfg.Rows = rows
			m = newMgr(cfg)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "prewarm: sparse ID 100 outside the table's rows [0, 100)") {
					t.Fatalf("prewarm of an out-of-range draw: recovered %v", r)
				}
			}()
			m.PrewarmRows(rows, func() int64 { return rows }, nil)
		})
	}
}

// hashPlan folds a plan's unique IDs, physical slots, fills and victims
// into h.
func hashPlan(h io.Writer, r *core.PlanResult) {
	fmt.Fprintf(h, "%d %v %v %v %v;", r.Seq, r.UniqueIDs, r.Slots, r.Fills, r.Evictions)
}

// singleShardPins are the LFU and random legs' recorded plan hashes
// (hashPlan over every plan) and final statistics, cold and prewarmed.
var singleShardPins = map[cache.PolicyKind]struct {
	plans, warmPlans uint64
	stats, warmStats core.Stats
}{
	cache.LFU: {
		0x60e47506586e3d1e, 0x2a643b09a38dea1,
		core.Stats{Queries: 6400, Hits: 2552, Misses: 3848, UniqueQueries: 6192,
			UniqueHits: 2344, UniqueMisses: 3848, Fills: 3848, Evictions: 3592, Planned: 100, Released: 97},
		core.Stats{Queries: 6400, Hits: 2630, Misses: 3770, UniqueQueries: 6192,
			UniqueHits: 2422, UniqueMisses: 3770, Fills: 3770, Evictions: 3770, Planned: 100, Released: 97},
	},
	cache.RandomPolicy: {
		0xea486ed99ec2990e, 0xbff3533c66069f58,
		core.Stats{Queries: 6400, Hits: 2534, Misses: 3866, UniqueQueries: 6192,
			UniqueHits: 2326, UniqueMisses: 3866, Fills: 3866, Evictions: 3610, Planned: 100, Released: 97},
		core.Stats{Queries: 6400, Hits: 2620, Misses: 3780, UniqueQueries: 6192,
			UniqueHits: 2412, UniqueMisses: 3780, Fills: 3780, Evictions: 3780, Planned: 100, Released: 97},
	},
}

// TestSingleShardBitIdentical holds an S=1 manager to Algorithm 1 under
// LRU: the reference's plans, physical slots included, and statistics.
// The reference implements LRU only, so the LFU and random legs hold
// the manager to its recorded plans instead: a hash of every plan and
// the final statistics, cold and after a Prewarm (which must not depend
// on whether it presizes the Hit-Map from the row count).
func TestSingleShardBitIdentical(t *testing.T) {
	for _, policy := range []cache.PolicyKind{cache.LRU, cache.LFU, cache.RandomPolicy} {
		t.Run(string(policy), func(t *testing.T) {
			const idSpace = 256 * 4
			cfg := testConfig(256, 64)
			cfg.Policy, cfg.PolicySeed = policy, 5
			m := mustNew(t, cfg, 1)
			st := newStream(11, 64, 64, idSpace)
			if policy == cache.LRU {
				lockstep(t, "s1", newReference(cfg), []*Manager{m}, st, 100, 2, 6, 4, nil)
			} else {
				pin := singleShardPins[policy]
				checkPinned(t, "cold", m, st, pin.plans, pin.stats)
				for _, rows := range []int64{0, idSpace} {
					warm := mustNew(t, cfg, 1)
					draw := rand.New(rand.NewSource(3))
					n := warm.PrewarmRows(rows, func() int64 { return draw.Int63n(idSpace) }, nil)
					if n != cfg.Slots {
						t.Fatalf("rows %d: prewarm inserted %d rows, want %d", rows, n, cfg.Slots)
					}
					checkPinned(t, fmt.Sprintf("prewarmed rows %d", rows), warm, st, pin.warmPlans, pin.warmStats)
				}
			}
			if m.Stats().Evictions == 0 {
				t.Fatal("stream never evicted: the replacement policy went unexercised")
			}
		})
	}
}

// checkPinned plans 100 batches of st on m, releasing at depth 4, and
// requires the hash of every plan and the final statistics to equal the
// recorded ones.
func checkPinned(t *testing.T, label string, m *Manager, st *stream, plans uint64, stats core.Stats) {
	t.Helper()
	h := fnv.New64a()
	var pend []*core.PlanResult
	for seq := 0; seq < 100; seq++ {
		future, hints := st.window(seq, 2, 6)
		res, err := m.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatal(err)
		}
		hashPlan(h, res)
		if pend = append(pend, res); len(pend) >= 4 {
			if err := m.Release(seq - 3); err != nil {
				t.Fatal(err)
			}
			m.Recycle(pend[0])
			pend = pend[1:]
		}
	}
	if got := m.Stats(); got != stats {
		t.Errorf("%s: stats %#v, want %#v", label, got, stats)
	}
	if got := h.Sum64(); got != plans {
		t.Errorf("%s: plan hash %#x, want %#x", label, got, plans)
	}
}

// TestShardedEquivalence is the tentpole property: at every shard count,
// with and without a worker pool, the sharded manager must emit the
// reference's plans, the same eviction victims in the same order, and
// the same aggregate statistics.
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
			m := mustNew(t, cfg, tc.shards, func(c *Config) { c.Pool = par.New(tc.workers) })
			st := newStream(int64(tc.shards)*100+7, 96, 96, int64(512*4))
			lockstep(t, tc.name, newReference(cfg), []*Manager{m}, st, 150, 2, tc.lookahead, 4, nil)
		})
	}
}

// TestPrewarmEquivalence: a prewarmed manager must hold exactly the rows
// the reference holds from the same draw stream (at one shard in the
// same slots), and the warm content must then evolve identically.
func TestPrewarmEquivalence(t *testing.T) {
	cfg := testConfig(512, 64)
	const idSpace = 2048
	ref := newReference(cfg)
	draw := rand.New(rand.NewSource(3))
	n := ref.Prewarm(func() int64 { return draw.Int63n(idSpace) })
	ms := []*Manager{mustNew(t, cfg, 1), mustNew(t, cfg, 4)}
	for _, m := range ms {
		draw := rand.New(rand.NewSource(3))
		if got := m.Prewarm(func() int64 { return draw.Int63n(idSpace) }, nil); got != n {
			t.Fatalf("S=%d: prewarm inserted %d rows, reference %d", m.Shards(), got, n)
		}
		for id, slot := range ref.slotOf {
			if !m.Contains(id) {
				t.Fatalf("S=%d: prewarmed row %d (reference slot %d) missing", m.Shards(), id, slot)
			}
		}
	}
	st := newStream(17, 48, 64, idSpace)
	lockstep(t, "prewarmed", ref, ms, st, 80, 2, 0, 4, nil)
}

// TestMoreShardsThanIDs: S far above the distinct-ID population must
// still work — most shards stay empty, aggregate behaviour is unchanged.
func TestMoreShardsThanIDs(t *testing.T) {
	cfg := testConfig(64, 16)
	m := mustNew(t, cfg, 32)
	st := newStream(23, 16, 16, 10) // only 10 distinct IDs in the universe
	lockstep(t, "tiny", newReference(cfg), []*Manager{m}, st, 40, 2, 0, 4, nil)
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
// random traces: the reference against managers at one shard and at the
// non-trivial shard counts 2, 3, 4 and 7, all on one stream. Trials draw
// a past window from 0 to 3 (a past window narrower than the future
// window re-stamps every pin each Plan), give half of them deep
// look-ahead hints, prewarm a quarter, and under-provision a third to a
// quarter of the worst-case reserve, so reserve allocation, its peak and
// the exhaustion error run too. Every manager must agree with the
// reference plan by plan (at one shard in physical slots too), fail on
// the same batch if it fails, and match its statistics after every
// batch.
func TestFuzzStatsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const trials = 100
	exhausted := 0
	for trial := 0; trial < trials; trial++ {
		slots := 64 + rng.Intn(512)
		batchLen := 16 + rng.Intn(96)
		idSpace := int64(slots/2 + rng.Intn(slots*6))
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
		prewarm := trial%4 == 2
		label := fmt.Sprintf("trial %d (slots %d reserve %d, batch %d, ids %d, past %d, future %d, lookahead %d, prewarm %v)",
			trial, slots, cfg.Reserve, batchLen, idSpace, cfg.PastWindow, cfg.FutureWindow, lookahead, prewarm)
		ref := newReference(cfg)
		var ms []*Manager
		for _, s := range []int{1, 2, 3, 4, 7} {
			ms = append(ms, mustNew(t, cfg, s, func(c *Config) { c.Pool = par.New(2) }))
		}
		if seed := rng.Int63(); prewarm {
			draw := rand.New(rand.NewSource(seed))
			n := ref.Prewarm(func() int64 { return draw.Int63n(idSpace) })
			for _, m := range ms {
				draw := rand.New(rand.NewSource(seed))
				if got := m.Prewarm(func() int64 { return draw.Int63n(idSpace) }, nil); got != n {
					t.Fatalf("%s S=%d: prewarm inserted %d rows, reference %d", label, m.Shards(), got, n)
				}
			}
		}
		st := newStream(rng.Int63(), 32, batchLen, idSpace)
		if lockstep(t, label, ref, ms, st, 60, cfg.FutureWindow, lookahead, cfg.PastWindow+1, nil) {
			exhausted++
		}
	}
	t.Logf("%d of %d trials reached the exhaustion error", exhausted, trials)
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
// shard under each replacement policy, nor as one resharded from 4 to 1
// with batches in flight. The
// pool is serial (nil), so every allocation counted is the planner's own;
// a capturing closure handed to the shard fan-out would show up here as
// one per call.
func TestPlanWarmZeroAllocs(t *testing.T) {
	const slots, batchLen, depth = 2048, 512, 3
	pl, err := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 2), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// reshardAt steps a case to one shard before that Plan (0: never);
	// policy overrides LRU.
	type allocCase struct {
		cfg       Config
		reshardAt int
		policy    cache.PolicyKind
	}
	cases := map[string]allocCase{
		"S1":        {Config{Shards: 1}, 0, ""},
		"S1-lfu":    {Config{Shards: 1}, 0, cache.LFU},
		"S1-random": {Config{Shards: 1}, 0, cache.RandomPolicy},
		"S4-to-S1":  {Config{Shards: 4, Placement: pl, Coord: CoordHier}, 100, ""},
	}
	for _, mode := range CoordModes {
		cases[string(mode)] = allocCase{Config{Shards: 4, Placement: pl, Coord: mode}, 0, ""}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Scratchpad = testConfig(slots, batchLen)
			if tc.policy != "" {
				cfg.Scratchpad.Policy = tc.policy
			}
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
// several shard counts (S=1 runs the miss loop without routing, stamps
// or the victim merge); the hot-path JSON history records the same
// scaling on the full sweep.
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
