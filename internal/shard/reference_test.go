package shard

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// reference is the paper's Plan rule (§IV-C, Algorithm 1) written out
// plainly, the oracle the equivalence tests hold every Manager to. It
// shares no code with the planners under test: the Hit-Map is a Go map,
// the LRU order a slice of resident IDs and the in-flight batches a FIFO
// of hold sets. Per Plan it
//
//   - deduplicates the batch in first-appearance order;
//   - pins the cached rows of every future batch and hints the cached
//     rows of the hint batches;
//   - touches and holds the hits in batch order;
//   - gives each miss, in order, the lowest free primary slot; failing
//     that, the slot of the least recent row that is unheld, unpinned
//     and unhinted; failing that (once per Plan) it stops honouring the
//     hints; failing that, the lowest free reserve slot, or it fails.
//
// A slot is never freed (an eviction hands its slot to the miss), so the
// lowest free primary or reserve slot is the next one never handed out.
type reference struct {
	cfg      core.Config
	slotOf   map[int64]int32 // the Hit-Map: resident ID -> slot
	recency  []int64         // resident IDs, least recent first
	holds    map[int64]int   // in-flight batches holding each ID
	inflight []heldIDs       // hold sets, oldest batch first
	// primary and reserve count the slots of each kind handed out.
	primary, reserve int
	stats            core.Stats
}

// heldIDs is one in-flight batch's hold set.
type heldIDs struct {
	seq int
	ids []int64
}

func newReference(cfg core.Config) *reference {
	return &reference{cfg: cfg, slotOf: map[int64]int32{}, holds: map[int64]int{}}
}

// PlanWithHints plans batch seq (occurrence list ids) with the future
// batches pinned and the hint batches hinted.
func (r *reference) PlanWithHints(seq int, ids []int64, future, hints [][]int64) (*core.PlanResult, error) {
	if len(future) > r.cfg.FutureWindow {
		return nil, fmt.Errorf("reference: plan %d: %d future batches, window %d", seq, len(future), r.cfg.FutureWindow)
	}
	res := &core.PlanResult{Seq: seq}
	count := map[int64]int{}
	for _, id := range ids {
		if count[id] == 0 {
			res.UniqueIDs = append(res.UniqueIDs, id)
		}
		count[id]++
	}
	pinned, hinted := r.cachedIn(future), r.cachedIn(hints)
	res.Slots = make([]int32, len(res.UniqueIDs))
	var misses []int
	held := heldIDs{seq: seq}
	for i, id := range res.UniqueIDs {
		slot, ok := r.slotOf[id]
		if !ok {
			misses = append(misses, i)
			continue
		}
		res.Slots[i] = slot
		res.OccHits += count[id]
		r.touch(id)
		r.holds[id]++
		held.ids = append(held.ids, id)
	}
	relaxed := false
	for _, i := range misses {
		id := res.UniqueIDs[i]
		res.OccMisses++
		res.OccHits += count[id] - 1
		slot, err := r.allocate(res, pinned, hinted, &relaxed)
		if err != nil {
			return nil, err
		}
		r.slotOf[id] = slot
		r.recency = append(r.recency, id)
		r.holds[id]++
		held.ids = append(held.ids, id)
		res.Slots[i] = slot
		res.Fills = append(res.Fills, core.Fill{ID: id, Slot: slot})
	}
	r.inflight = append(r.inflight, held)
	s := &r.stats
	s.Planned++
	s.Queries += int64(res.OccHits + res.OccMisses)
	s.Hits += int64(res.OccHits)
	s.Misses += int64(res.OccMisses)
	s.UniqueQueries += int64(len(res.UniqueIDs))
	s.UniqueHits += int64(len(res.UniqueIDs) - len(misses))
	s.UniqueMisses += int64(len(misses))
	s.Fills += int64(len(misses))
	s.Evictions += int64(len(res.Evictions))
	s.ReserveAllocs += int64(res.ReserveAllocs)
	return res, nil
}

// cachedIn returns the set of resident IDs among batches.
func (r *reference) cachedIn(batches [][]int64) map[int64]bool {
	set := map[int64]bool{}
	for _, ids := range batches {
		for _, id := range ids {
			if _, ok := r.slotOf[id]; ok {
				set[id] = true
			}
		}
	}
	return set
}

// touch moves id to the most recent end of the LRU order.
func (r *reference) touch(id int64) {
	i := slices.Index(r.recency, id)
	r.recency = append(slices.Delete(r.recency, i, i+1), id)
}

// allocate finds a slot for one miss of res (see reference).
func (r *reference) allocate(res *core.PlanResult, pinned, hinted map[int64]bool, relaxed *bool) (int32, error) {
	if r.primary < r.cfg.Slots {
		r.primary++
		return int32(r.primary - 1), nil
	}
	v := r.victim(pinned, hinted, *relaxed)
	if v < 0 && !*relaxed {
		*relaxed = true
		v = r.victim(pinned, hinted, true)
	}
	if v >= 0 {
		id := r.recency[v]
		slot := r.slotOf[id]
		r.recency = slices.Delete(r.recency, v, v+1)
		delete(r.slotOf, id)
		res.Evictions = append(res.Evictions, core.Eviction{OldID: id, Slot: slot})
		return slot, nil
	}
	if r.reserve == r.cfg.Reserve {
		return 0, fmt.Errorf("reference: plan %d: every slot and the reserve are protected", res.Seq)
	}
	r.reserve++
	r.stats.ReservePeak = r.reserve
	res.ReserveAllocs++
	return int32(r.cfg.Slots + r.reserve - 1), nil
}

// victim returns the LRU position of the least recent evictable row, or
// -1.
func (r *reference) victim(pinned, hinted map[int64]bool, relaxed bool) int {
	for i, id := range r.recency {
		if r.holds[id] == 0 && !pinned[id] && (relaxed || !hinted[id]) {
			return i
		}
	}
	return -1
}

// Release drops the holds of the oldest in-flight batch, which must be
// seq.
func (r *reference) Release(seq int) error {
	if len(r.inflight) == 0 || r.inflight[0].seq != seq {
		return fmt.Errorf("reference: release %d is not the oldest in-flight batch", seq)
	}
	for _, id := range r.inflight[0].ids {
		if r.holds[id]--; r.holds[id] == 0 {
			delete(r.holds, id)
		}
	}
	r.inflight = r.inflight[1:]
	r.stats.Released++
	return nil
}

// Prewarm fills the free primary slots with distinct IDs drawn from
// sample, skipping draws already resident, and gives up after
// 8×Slots+100 draws. It returns the number of rows inserted.
func (r *reference) Prewarm(sample func() int64) int {
	n := 0
	for draws := 0; r.primary < r.cfg.Slots && draws < 8*r.cfg.Slots+100; draws++ {
		id := sample()
		if _, ok := r.slotOf[id]; ok {
			continue
		}
		r.slotOf[id] = int32(r.primary)
		r.primary++
		r.recency = append(r.recency, id)
		n++
	}
	return n
}
