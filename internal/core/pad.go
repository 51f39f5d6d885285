package core

import (
	"slices"

	"repro/internal/intmap"
)

// Pad is one sub-scratchpad over a Frame: a Hit-Map, a stack of free
// primary slots, a FIFO hold ring and a recency list. Scratchpad plans
// one pad over the whole batch; the sharded manager (internal/shard)
// keeps one per shard, each owning a hash partition of the ID space,
// and plans each over its share of the batch.
type Pad struct {
	// HitMap maps the pad's resident sparse IDs to slots.
	HitMap *intmap.Map
	// FreePrimary holds never-yet-used primary slots, popped from the
	// end (eviction reuses the victim's slot directly).
	FreePrimary []int32
	// Ring is the pad's FIFO of per-batch hold sets; every Plan pushes
	// one entry (possibly empty), so Release stays FIFO-checked per pad.
	Ring BatchRing
	// List is the pad's recency list in the frame's LRU policy.
	List int
	// OccHits and OccMisses are the current Plan's occurrence counts on
	// this pad; Queries and Hits total them over the pad's lifetime.
	OccHits, OccMisses int
	Queries, Hits      int64

	// held is the hold set being assembled for the current Plan.
	held []int32
}

// Reset empties p into pad j of n over cfg, keeping its buffers: nothing
// in flight, zero counters, the primary slots s ≡ j (mod n) stacked so
// pops ascend, and an empty Hit-Map sized for the pad's share of the
// nominal slots plus half the reserve (hold pressure routinely spills
// into reserve, rarely to the provisioning bound; the map grows past it).
func (p *Pad) Reset(cfg Config, j, n int) {
	p.Ring.Clear()
	if p.HitMap == nil {
		p.HitMap = &intmap.Map{}
	}
	p.HitMap.Reset((cfg.Slots + cfg.Reserve/2) / n)
	count := (cfg.Slots - j + n - 1) / n
	free := slices.Grow(p.FreePrimary[:0], count)
	for s := j + (count-1)*n; s >= 0; s -= n {
		free = append(free, int32(s))
	}
	*p = Pad{HitMap: p.HitMap, FreePrimary: free, Ring: p.Ring, List: j}
}

// Len returns the number of rows resident on the pad.
func (p *Pad) Len() int { return p.HitMap.Len() }

// Contains reports whether sparse ID id has a slot on the pad.
func (p *Pad) Contains(id int64) bool {
	_, ok := p.HitMap.Get(id)
	return ok
}

// ForEach visits every resident (sparse ID, slot) pair in unspecified
// order; engines use it to flush dirty cached rows back to the CPU
// tables at the end of training.
func (p *Pad) ForEach(f func(id int64, slot int32)) { p.HitMap.ForEach(f) }

// PopFree takes the next free primary slot; the stack must be non-empty.
func (p *Pad) PopFree() int32 {
	n := len(p.FreePrimary) - 1
	slot := p.FreePrimary[n]
	p.FreePrimary = p.FreePrimary[:n]
	return slot
}

// Commit registers the current Plan's hold set as batch seq's entry on
// the pad's ring.
func (p *Pad) Commit(seq int) {
	p.Ring.Push(HeldBatch{Seq: seq, Slots: p.held})
	p.held = nil
}

// Batch is one Plan's input to the pad passes: the distinct IDs with
// their multiplicities (nil: one each) and the result being filled. A
// non-nil Stamps records the hit at position i as touched at Base+i+1.
type Batch struct {
	Uniq   []int64
	Counts []int32
	Res    *PlanResult
	Stamps []uint64
	Base   uint64
}

// PlanPad is one pad's share of a Plan, the pass every planner runs: it
// pins the pad's cached rows among pins, hints those among hints, then
// classifies the batch positions idx (nil: all) against the pad's
// Hit-Map. A hit writes its slot to b.Res.Slots[i] and is touched and
// held; a miss writes -1 for the planner to allocate. A hit ID's
// occurrences all hit; a missed ID's first occurrence misses and the
// rest hit (the row is scheduled for fill and resident by [Train]). The
// pass writes only the pad's slots and list, so pads run in parallel.
func (f *Frame) PlanPad(p *Pad, b *Batch, idx []int32, pins, hints [][]int64) {
	for _, ids := range pins {
		for _, id := range ids {
			if slot, ok := p.HitMap.Get(id); ok {
				f.Pin(slot)
			}
		}
	}
	for _, ids := range hints {
		for _, id := range ids {
			if slot, ok := p.HitMap.Get(id); ok {
				f.Hint(slot)
			}
		}
	}
	n := len(b.Uniq)
	if idx != nil {
		n = len(idx)
	}
	// The hold set is the pad's hits plus the misses it owns, so its
	// share of the batch bounds it: the planner's inserts never grow it.
	held := p.Ring.Spare(n)
	hits, misses := 0, 0
	for k := 0; k < n; k++ {
		i := k
		if idx != nil {
			i = int(idx[k])
		}
		c := 1
		if b.Counts != nil {
			c = int(b.Counts[i])
		}
		slot, ok := p.HitMap.Get(b.Uniq[i])
		if !ok {
			misses++
			hits += c - 1
			b.Res.Slots[i] = -1
			continue
		}
		hits += c
		b.Res.Slots[i] = slot
		if f.lru != nil {
			f.lru.Touch(p.List, slot)
		} else {
			f.policy.OnAccess(int(slot))
		}
		if b.Stamps != nil {
			b.Stamps[slot] = b.Base + uint64(i) + 1
		}
		f.Hold(slot)
		held = append(held, slot)
	}
	p.held = held
	p.OccHits, p.OccMisses = hits, misses
	p.Queries += int64(hits + misses)
	p.Hits += int64(hits)
}

// Put moves id into slot on pad p: Hit-Map entry and recency position.
func (f *Frame) Put(p *Pad, id int64, slot int32) {
	f.Insert(p.HitMap, id, slot)
	if f.lru != nil {
		f.lru.Touch(p.List, slot)
	} else {
		f.policy.OnInsert(int(slot))
	}
}

// FillMiss places the missed ID at batch position k into slot on pad p,
// holds it for the batch and schedules its fill.
func (f *Frame) FillMiss(p *Pad, res *PlanResult, k int32, slot int32) {
	id := res.UniqueIDs[k]
	f.Put(p, id, slot)
	f.Hold(slot)
	p.held = append(p.held, slot)
	res.Slots[k] = slot
	res.Fills = append(res.Fills, Fill{ID: id, Slot: slot})
}

// Misses lists res's positions the pad passes left unresolved, in
// first-appearance order (the order a planner allocates them in), and
// presizes res's fill and eviction schedules for them. The list is
// scratch, valid until the next call.
func (f *Frame) Misses(res *PlanResult) []int32 {
	miss := slices.Grow(f.missIdx[:0], len(res.Slots))
	for i, slot := range res.Slots {
		if slot < 0 {
			miss = append(miss, int32(i))
		}
	}
	f.missIdx = miss
	res.Fills = slices.Grow(res.Fills, len(miss))
	res.Evictions = slices.Grow(res.Evictions, len(miss))
	return miss
}

// PlanOne is the unsharded Plan: pad p over the whole batch, its misses
// allocated from the free primary slots, then the replacement policy's
// victims, then the reserve. Hits are touched before any victim search,
// so the policy's sweep (armed lazily once the free list runs dry) walks
// the eviction order exactly once per Plan.
func (f *Frame) PlanOne(p *Pad, seq int, uniq []int64, counts []int32, future, hints [][]int64) (*PlanResult, error) {
	res, start, err := f.BeginPlan(seq, uniq, future, hints)
	if err != nil {
		return nil, err
	}
	f.PlanPad(p, &Batch{Uniq: uniq, Counts: counts, Res: res}, nil, future[start:], hints)
	res.OccHits, res.OccMisses = p.OccHits, p.OccMisses
	f.sweepArmed = false
	for _, k := range f.Misses(res) {
		slot, err := f.allocate(p, res)
		if err != nil {
			return nil, err
		}
		f.FillMiss(p, res, k, slot)
	}
	p.Commit(seq)
	f.EndPlan(res)
	return res, nil
}

// allocate finds a slot for a miss of res on pad p: free primary slot
// first, then an unprotected victim (whose eviction it schedules in
// res), then a reserve slot.
func (f *Frame) allocate(p *Pad, res *PlanResult) (int32, error) {
	if len(p.FreePrimary) > 0 {
		return p.PopFree(), nil
	}
	// Arm the policy's victim sweep on the Plan's first eviction need
	// (after the free list is exhausted, so free-slot inserts can no
	// longer disturb the sweep cursor).
	if !f.sweepArmed {
		f.policy.BeginVictimSweep()
		f.sweepArmed = true
	}
	v := f.victim()
	if v < 0 && f.RelaxHints() {
		// Every unprotected slot is merely hinted: sweep once more.
		f.policy.BeginVictimSweep()
		v = f.victim()
	}
	if v >= 0 {
		slot := int32(v)
		res.Evictions = append(res.Evictions, Eviction{OldID: f.Evict(p.HitMap, slot), Slot: slot})
		return slot, nil
	}
	return f.TakeReserve(res)
}

// victim picks the next evictable slot of the armed sweep, or -1. For
// the default LRU policy the sweep is driven inline (direct calls, the
// evictability check inlined); other policies go through the interface.
func (f *Frame) victim() int {
	if f.lru != nil {
		for {
			v := f.lru.SweepNext()
			if v < 0 || f.Evictable(int32(v)) {
				return v
			}
		}
	}
	return f.policy.Victim(f.evictableFn)
}

// WarmOne is the unsharded Prewarm (see Warm): draws fill pad p's free
// primary slots.
func (f *Frame) WarmOne(p *Pad, rows int64, sample func() int64, onFill func(id int64, slot int32)) int {
	return f.Warm((*padWarmer)(p), rows, sample, onFill)
}

// padWarmer is one pad's side of Frame.Warm.
type padWarmer Pad

func (w *padWarmer) Free() bool { return len(w.FreePrimary) > 0 }

func (w *padWarmer) Cached(id int64) bool { return (*Pad)(w).Contains(id) }

func (w *padWarmer) Place(f *Frame, id int64) int32 {
	slot := (*Pad)(w).PopFree()
	f.Put((*Pad)(w), id, slot)
	return slot
}
