package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	. "repro/internal/core"
	"repro/internal/shard"
)

func testConfig(slots, reserve int) Config {
	return Config{
		Slots:        slots,
		Reserve:      reserve,
		Policy:       cache.LRU,
		PastWindow:   3,
		FutureWindow: 2,
	}
}

// newPad builds the planner core's tests drive: the product planner,
// a one-shard shard.Manager, which plans one Pad over the whole Frame.
func newPad(cfg Config) (*shard.Manager, error) {
	return shard.New(shard.Config{Scratchpad: cfg})
}

func mustPad(tb testing.TB, cfg Config) *shard.Manager {
	tb.Helper()
	sp, err := newPad(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Slots: 0, Policy: cache.LRU},
		{Slots: 4, Reserve: -1, Policy: cache.LRU},
		{Slots: 4, PastWindow: -1, Policy: cache.LRU},
		{Slots: 4, FutureWindow: -1, Policy: cache.LRU},
		{Slots: 4, Rows: -1, Policy: cache.LRU},
		{Slots: 4},
		{Slots: 4, Policy: "bogus"},
	}
	for i, cfg := range bad {
		if _, err := newPad(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestPlanHitsAndMisses(t *testing.T) {
	sp := mustPad(t, testConfig(4, 0))
	plan, err := sp.Plan(0, []int64{10, 20, 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OccMisses != 2 || plan.OccHits != 1 {
		t.Fatalf("occ hits/misses = %d/%d", plan.OccHits, plan.OccMisses)
	}
	if len(plan.Fills) != 2 || len(plan.Evictions) != 0 {
		t.Fatalf("fills %d evictions %d", len(plan.Fills), len(plan.Evictions))
	}
	if len(plan.UniqueIDs) != 2 || plan.UniqueIDs[0] != 10 || plan.UniqueIDs[1] != 20 {
		t.Fatalf("unique = %v", plan.UniqueIDs)
	}
	if plan.Slot(10) == plan.Slot(20) {
		t.Fatal("two IDs share a slot")
	}
	if err := sp.Release(0); err != nil {
		t.Fatal(err)
	}
	// Second batch hits.
	plan2, err := sp.Plan(1, []int64{10, 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.OccHits != 2 || len(plan2.Fills) != 0 {
		t.Fatalf("plan2 %+v", plan2)
	}
	if err := sp.Release(1); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Queries != 5 || st.Hits != 3 || st.Misses != 2 || st.Fills != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPlanSlotPanicsOnUnplannedID(t *testing.T) {
	sp := mustPad(t, testConfig(4, 0))
	plan, err := sp.Plan(0, []int64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Slot(unplanned) did not panic")
		}
	}()
	plan.Slot(99)
}

func TestEvictionWritesBack(t *testing.T) {
	sp := mustPad(t, testConfig(2, 0))
	if _, err := sp.Plan(0, []int64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(0); err != nil {
		t.Fatal(err)
	}
	plan, err := sp.Plan(1, []int64{3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Evictions) != 2 {
		t.Fatalf("evictions = %v", plan.Evictions)
	}
	// Every eviction carries the displaced key for write-back.
	seen := map[int64]bool{}
	for _, e := range plan.Evictions {
		seen[e.OldID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("evicted keys %v, want 1 and 2", seen)
	}
	if sp.Contains(1) || sp.Contains(2) || !sp.Contains(3) || !sp.Contains(4) {
		t.Fatal("hit map inconsistent after eviction")
	}
}

func TestHoldsPreventEviction(t *testing.T) {
	sp := mustPad(t, testConfig(2, 2))
	if _, err := sp.Plan(0, []int64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	// Batch 0 not released: its slots are protected, so batch 1's
	// misses must land in reserve slots.
	plan, err := sp.Plan(1, []int64{3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Evictions) != 0 {
		t.Fatalf("protected slots were evicted: %v", plan.Evictions)
	}
	if plan.ReserveAllocs != 2 {
		t.Fatalf("reserve allocs = %d", plan.ReserveAllocs)
	}
	if sp.Stats().ReservePeak != 2 {
		t.Fatalf("reserve peak = %d", sp.Stats().ReservePeak)
	}
}

func TestPlanExhaustion(t *testing.T) {
	sp := mustPad(t, testConfig(1, 0))
	if _, err := sp.Plan(0, []int64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Plan(1, []int64{2}, nil); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestFutureWindowPinning(t *testing.T) {
	sp := mustPad(t, testConfig(2, 2))
	if _, err := sp.Plan(0, []int64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(0); err != nil {
		t.Fatal(err)
	}
	// Rows 1 and 2 are unheld now, but the future batches need row 1:
	// victim selection must spare it and evict row 2 only.
	plan, err := sp.Plan(1, []int64{3}, [][]int64{{1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Evictions) != 1 || plan.Evictions[0].OldID != 2 {
		t.Fatalf("evictions = %v, want only row 2", plan.Evictions)
	}
	if !sp.Contains(1) {
		t.Fatal("future-pinned row was evicted")
	}
}

func TestCurrentBatchSelfPinning(t *testing.T) {
	// Row 1 is cached and appears LATE in the current batch. An early
	// miss must not evict it, else the later occurrence would re-read a
	// stale CPU copy.
	sp := mustPad(t, testConfig(1, 4))
	if _, err := sp.Plan(0, []int64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(0); err != nil {
		t.Fatal(err)
	}
	plan, err := sp.Plan(1, []int64{9, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Evictions {
		if e.OldID == 1 {
			t.Fatal("current batch's own row was evicted mid-plan")
		}
	}
	if plan.OccHits != 1 {
		t.Fatalf("occ hits = %d, want 1 (row 1 still cached)", plan.OccHits)
	}
}

func TestReleaseOrdering(t *testing.T) {
	sp := mustPad(t, testConfig(8, 0))
	if _, err := sp.Plan(0, []int64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Plan(1, []int64{2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(1); err == nil {
		t.Fatal("out-of-order release accepted")
	}
	if err := sp.Release(0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(2); err == nil {
		t.Fatal("release with nothing in flight accepted")
	}
}

func TestFutureWindowBound(t *testing.T) {
	sp := mustPad(t, testConfig(4, 0))
	if _, err := sp.Plan(0, []int64{1}, [][]int64{{2}, {3}, {4}}); err == nil {
		t.Fatal("future window overflow accepted")
	}
}

// TestHitMapStorageBijectionProperty: after any sequence of plans and
// releases, the Hit-Map and the slot key array are inverse mappings, and
// no two IDs share a slot.
func TestHitMapStorageBijectionProperty(t *testing.T) {
	f := func(opsRaw []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp, err := newPad(Config{
			Slots: 6, Reserve: 40, Policy: cache.LRU,
			PastWindow: 3, FutureWindow: 2,
		})
		if err != nil {
			return false
		}
		seq := 0
		inFlight := 0
		for _, op := range opsRaw {
			if op%3 == 0 && inFlight > 0 {
				if err := sp.Release(seq - inFlight); err != nil {
					return false
				}
				inFlight--
				continue
			}
			if inFlight >= 4 {
				continue // keep within window capacity
			}
			n := 1 + int(op%5)
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(rng.Intn(30))
			}
			if _, err := sp.Plan(seq, ids, nil); err != nil {
				return false
			}
			seq++
			inFlight++
		}
		// Verify bijection.
		count := 0
		ok := true
		sp.ForEach(func(id int64, slot int32) {
			count++
			if sp.Key(slot) != id {
				ok = false
			}
		})
		return ok && count == sp.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeldNeverEvictedProperty: a slot is never evicted while held.
func TestHeldNeverEvictedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp, err := newPad(Config{
			Slots: 5, Reserve: 60, Policy: cache.LRU,
			PastWindow: 3, FutureWindow: 2,
		})
		if err != nil {
			return false
		}
		// Keep 3 batches in flight; track which slots each holds.
		heldSlots := map[int]map[int32]bool{}
		for seq := 0; seq < 12; seq++ {
			ids := make([]int64, 4)
			for i := range ids {
				ids[i] = int64(rng.Intn(25))
			}
			plan, err := sp.Plan(seq, ids, nil)
			if err != nil {
				return false
			}
			// No eviction may target a slot held by an in-flight batch.
			for _, e := range plan.Evictions {
				for _, slots := range heldSlots {
					if slots[e.Slot] {
						return false
					}
				}
			}
			hs := map[int32]bool{}
			for _, s := range plan.Slots {
				hs[s] = true
			}
			heldSlots[seq] = hs
			if seq >= 3 {
				rel := seq - 3
				if err := sp.Release(rel); err != nil {
					return false
				}
				delete(heldSlots, rel)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestWorstCaseReserve(t *testing.T) {
	cfg := Config{Slots: 10, Policy: cache.LRU, PastWindow: 3, FutureWindow: 2}
	// Window = 6 batches; 4 unique IDs each -> 25 slots needed, 10
	// present -> reserve 15.
	if got := WorstCaseReserve(cfg, 4); got != 15 {
		t.Fatalf("reserve = %d, want 15", got)
	}
	cfg.Slots = 1000
	if got := WorstCaseReserve(cfg, 4); got != 0 {
		t.Fatalf("reserve = %d, want 0", got)
	}
}

func TestPrewarm(t *testing.T) {
	sp := mustPad(t, testConfig(10, 0))
	rng := rand.New(rand.NewSource(11))
	var filled []int64
	n := sp.Prewarm(func() int64 { return int64(rng.Intn(100)) },
		func(id int64, slot int32) { filled = append(filled, id) })
	if n != 10 || sp.Len() != 10 || len(filled) != 10 {
		t.Fatalf("prewarm inserted %d, len %d, callbacks %d", n, sp.Len(), len(filled))
	}
	for _, id := range filled {
		if !sp.Contains(id) {
			t.Fatalf("prewarmed id %d missing", id)
		}
	}
	// Prewarm terminates even when the support is smaller than the
	// cache.
	sp2 := mustPad(t, testConfig(10, 0))
	n2 := sp2.Prewarm(func() int64 { return 3 }, nil)
	if n2 != 1 {
		t.Fatalf("tiny-support prewarm inserted %d", n2)
	}
}

func TestScratchpadAccessors(t *testing.T) {
	sp := mustPad(t, Config{Slots: 3, Reserve: 2, Policy: cache.LFU, PastWindow: 1, FutureWindow: 1})
	if sp.Capacity() != 3 || sp.TotalSlots() != 5 {
		t.Fatalf("capacity %d total %d", sp.Capacity(), sp.TotalSlots())
	}
	plan, err := sp.Plan(0, []int64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.InFlight() != 1 {
		t.Fatalf("in flight %d", sp.InFlight())
	}
	if !sp.Held(plan.Slot(7)) {
		t.Fatal("planned slot not held")
	}
	if sp.Key(plan.Slot(7)) != 7 {
		t.Fatal("Key mismatch")
	}
}
