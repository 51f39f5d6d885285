package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	. "repro/internal/core"
	"repro/internal/shard"
)

// planHarness drives a scratchpad through a pipelined Plan/Release/Recycle
// steady state: `depth` batches in flight, pre-generated ID streams, and
// the future window wired exactly as the engine wires it.
type planHarness struct {
	sp      *shard.Manager
	batches [][]int64
	future  [][]int64 // reused projection buffer
	pending []*PlanResult
	depth   int
	seq     int
}

func newPlanHarness(tb testing.TB, slots, batchLen, depth, futureWin int) *planHarness {
	tb.Helper()
	cfg := Config{
		Slots:        slots,
		Policy:       cache.LRU,
		PastWindow:   depth - 1,
		FutureWindow: futureWin,
	}
	cfg.Reserve = WorstCaseReserve(cfg, batchLen)
	sp := mustPad(tb, cfg)
	rng := rand.New(rand.NewSource(99))
	const distinct = 64
	h := &planHarness{
		sp:      sp,
		batches: make([][]int64, distinct),
		future:  make([][]int64, futureWin),
		depth:   depth,
	}
	idSpace := int64(slots * 4) // 4x the cache: steady eviction churn
	for i := range h.batches {
		ids := make([]int64, batchLen)
		for j := range ids {
			ids[j] = rng.Int63n(idSpace)
		}
		h.batches[i] = ids
	}
	return h
}

func (h *planHarness) batch(seq int) []int64 { return h.batches[seq%len(h.batches)] }

// step runs one pipeline beat: plan the next batch, and once `depth`
// batches are in flight, release + recycle the oldest.
func (h *planHarness) step(tb testing.TB) {
	for k := range h.future {
		h.future[k] = h.batch(h.seq + 1 + k)
	}
	res, err := h.sp.Plan(h.seq, h.batch(h.seq), h.future)
	if err != nil {
		tb.Fatal(err)
	}
	h.pending = append(h.pending, res)
	if len(h.pending) >= h.depth {
		oldSeq := h.seq - h.depth + 1
		if err := h.sp.Release(oldSeq); err != nil {
			tb.Fatal(err)
		}
		h.sp.Recycle(h.pending[0])
		copy(h.pending, h.pending[1:])
		h.pending = h.pending[:len(h.pending)-1]
	}
	h.seq++
}

// TestPlanWarmZeroAllocs is the hot-path regression guard: once the
// free lists and buffers have warmed up, a full Plan/Release/Recycle
// cycle must not allocate at all. (LRU policy: the paper's default; LFU
// allocates occasionally by design when its frequency-bucket map grows.)
func TestPlanWarmZeroAllocs(t *testing.T) {
	h := newPlanHarness(t, 2048, 512, 3, 2)
	for i := 0; i < 200; i++ { // warm every pool and slice capacity
		h.step(t)
	}
	allocs := testing.AllocsPerRun(100, func() { h.step(t) })
	if allocs != 0 {
		t.Fatalf("warm Plan path allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestPlanRecycleReuse checks that recycled PlanResults really are reused
// (the pool is not silently bypassed) and produce correct fresh plans.
func TestPlanRecycleReuse(t *testing.T) {
	h := newPlanHarness(t, 256, 64, 2, 0)
	h.step(t) // first plan: pool empty, result pending
	if n := len(h.sp.PlanPool()); n != 0 {
		t.Fatalf("pool should be empty while plans are pending, has %d", n)
	}
	h.step(t) // second plan: depth reached, oldest recycled into the pool
	if n := len(h.sp.PlanPool()); n != 1 {
		t.Fatalf("pool should hold the recycled plan, has %d", n)
	}
	pooled := h.sp.PlanPool()[0]
	h.step(t) // third plan must reuse the pooled result
	if h.pending[len(h.pending)-1] != pooled {
		t.Fatal("Plan did not reuse the recycled PlanResult")
	}
	// Drive enough steps that the pooled results cycle many times, then
	// validate the plan's invariants.
	for i := 0; i < 50; i++ {
		h.step(t)
	}
	res := h.pending[0]
	if len(res.UniqueIDs) != len(res.Slots) {
		t.Fatalf("UniqueIDs/Slots length mismatch: %d vs %d", len(res.UniqueIDs), len(res.Slots))
	}
	seen := map[int32]bool{}
	for i, id := range res.UniqueIDs {
		if res.Slots[i] < 0 {
			t.Fatalf("unresolved slot for id %d", id)
		}
		if got := res.Slot(id); got != res.Slots[i] {
			t.Fatalf("Slot(%d) = %d, Slots[%d] = %d", id, got, i, res.Slots[i])
		}
		if seen[res.Slots[i]] {
			t.Fatalf("slot %d assigned twice in one plan", res.Slots[i])
		}
		seen[res.Slots[i]] = true
	}
}

// TestReleaseRingReusesBuffer guards the FIFO slice-leak fix: a long
// Plan/Release stream keeps the pipeline depth in flight, and once warm
// a cycle allocates nothing, so the in-flight ring is not growing (its
// buffer bound is TestBatchRingReusesBuffer's).
func TestReleaseRingReusesBuffer(t *testing.T) {
	h := newPlanHarness(t, 256, 64, 3, 0)
	for i := 0; i < 1000; i++ {
		h.step(t)
	}
	if got := h.sp.InFlight(); got != h.depth-1 && got != h.depth {
		t.Fatalf("in-flight %d, want ~%d", got, h.depth)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.step(t) }); allocs != 0 {
		t.Fatalf("a cycle after %d Plans allocates %.1f times, want 0", h.seq, allocs)
	}
}

// TestPinStampEquivalence proves the multi-epoch pin-stamp optimization
// changes nothing observable: two scratchpads with identical
// configuration and input streams — one forced onto the original
// stamp-every-plan discipline (pinValid=1), one using multi-epoch stamps
// — must emit bit-identical plans (slots, fills, evictions) and stats.
func TestPinStampEquivalence(t *testing.T) {
	for _, policy := range []cache.PolicyKind{cache.LRU, cache.LFU} {
		mk := func() *shard.Manager {
			cfg := Config{Slots: 512, Policy: policy, PolicySeed: 9, PastWindow: 3, FutureWindow: 2}
			cfg.Reserve = WorstCaseReserve(cfg, 96)
			return mustPad(t, cfg)
		}
		fast := mk()
		slow := mk()
		if got := fast.PinValid(); got != 2 {
			t.Fatalf("pinValid = %d, want 2 (past 3 >= future 2)", got)
		}
		slow.SetPinValid(1) // force the original per-plan pin discipline

		rng := rand.New(rand.NewSource(31))
		batches := make([][]int64, 128)
		for i := range batches {
			ids := make([]int64, 96)
			for j := range ids {
				ids[j] = rng.Int63n(2048) // 4x the cache: churn
			}
			batches[i] = ids
		}
		future := make([][]int64, 2)
		var pendA, pendB []*PlanResult
		for seq := 0; seq < 120; seq++ {
			future[0] = batches[(seq+1)%len(batches)]
			future[1] = batches[(seq+2)%len(batches)]
			a, err := fast.Plan(seq, batches[seq%len(batches)], future)
			if err != nil {
				t.Fatal(err)
			}
			b, err := slow.Plan(seq, batches[seq%len(batches)], future)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Slots) != len(b.Slots) || len(a.Fills) != len(b.Fills) || len(a.Evictions) != len(b.Evictions) {
				t.Fatalf("seq %d: plan shape diverged: %d/%d slots, %d/%d fills, %d/%d evictions",
					seq, len(a.Slots), len(b.Slots), len(a.Fills), len(b.Fills), len(a.Evictions), len(b.Evictions))
			}
			for i := range a.Slots {
				if a.Slots[i] != b.Slots[i] || a.UniqueIDs[i] != b.UniqueIDs[i] {
					t.Fatalf("seq %d: slot assignment diverged at %d", seq, i)
				}
			}
			for i := range a.Evictions {
				if a.Evictions[i] != b.Evictions[i] {
					t.Fatalf("seq %d: eviction diverged at %d: %+v vs %+v", seq, i, a.Evictions[i], b.Evictions[i])
				}
			}
			pendA, pendB = append(pendA, a), append(pendB, b)
			if len(pendA) >= 4 { // release at Train: past window 3
				old := seq - 3
				if err := fast.Release(old); err != nil {
					t.Fatal(err)
				}
				if err := slow.Release(old); err != nil {
					t.Fatal(err)
				}
				fast.Recycle(pendA[0])
				slow.Recycle(pendB[0])
				pendA, pendB = pendA[1:], pendB[1:]
			}
		}
		if fast.Stats() != slow.Stats() {
			t.Fatalf("%s: stats diverged:\nfast %+v\nslow %+v", policy, fast.Stats(), slow.Stats())
		}
	}
}

// BenchmarkPlan measures the steady-state Plan/Release/Recycle cycle —
// the control-plane cost the paper requires to hide inside the pipeline.
func BenchmarkPlan(b *testing.B) {
	h := newPlanHarness(b, 8192, 2048, 3, 2)
	for i := 0; i < 50; i++ {
		h.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step(b)
	}
}

// BenchmarkPlanHighLocality measures the hit-dominated regime (IDs drawn
// from a space smaller than the cache: no evictions after warm-up).
func BenchmarkPlanHighLocality(b *testing.B) {
	cfg := Config{Slots: 8192, Policy: cache.LRU, PastWindow: 2, FutureWindow: 2}
	cfg.Reserve = WorstCaseReserve(cfg, 2048)
	sp := mustPad(b, cfg)
	rng := rand.New(rand.NewSource(5))
	batches := make([][]int64, 16)
	for i := range batches {
		ids := make([]int64, 2048)
		for j := range ids {
			ids[j] = rng.Int63n(4096) // half the cache size
		}
		batches[i] = ids
	}
	future := make([][]int64, 2)
	var pending []*PlanResult
	step := func(seq int) {
		future[0] = batches[(seq+1)%len(batches)]
		future[1] = batches[(seq+2)%len(batches)]
		res, err := sp.Plan(seq, batches[seq%len(batches)], future)
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, res)
		if len(pending) >= 3 {
			if err := sp.Release(seq - 2); err != nil {
				b.Fatal(err)
			}
			sp.Recycle(pending[0])
			copy(pending, pending[1:])
			pending = pending[:len(pending)-1]
		}
	}
	seq := 0
	for ; seq < 20; seq++ {
		step(seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(seq)
		seq++
	}
}
