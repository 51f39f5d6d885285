package core

import "slices"

// Pad is one sub-scratchpad over a Frame: a stack of free primary slots,
// a FIFO hold ring, a recency list and the count of the frame's resident
// rows it owns. The Hit-Map is the frame's, one per table. The manager
// in internal/shard keeps one pad per shard, each owning a hash
// partition of the ID space, and plans each over its share of the batch
// (with one shard, the one pad over the whole batch).
type Pad struct {
	// FreePrimary holds never-yet-used primary slots, popped from the
	// end (eviction reuses the victim's slot directly).
	FreePrimary []int32
	// Ring is the pad's FIFO of per-batch hold sets; every Plan pushes
	// one entry (possibly empty), so Release stays FIFO-checked per pad.
	Ring BatchRing
	// List is the pad's recency list in the frame's LRU policy.
	List int
	// Resident counts the frame's resident rows the pad owns.
	Resident int
	// OccHits and OccMisses are the current Plan's occurrence counts on
	// this pad; Queries and Hits total them over the pad's lifetime.
	OccHits, OccMisses int
	Queries, Hits      int64

	// held is the hold set being assembled for the current Plan.
	held []int32
}

// Reset empties p into pad j of n over cfg, keeping its buffers: nothing
// in flight or resident, zero counters, and the primary slots
// s ≡ j (mod n) stacked so pops ascend.
func (p *Pad) Reset(cfg Config, j, n int) {
	p.Ring.Clear()
	count := (cfg.Slots - j + n - 1) / n
	free := slices.Grow(p.FreePrimary[:0], count)
	for s := j + (count-1)*n; s >= 0; s -= n {
		free = append(free, int32(s))
	}
	*p = Pad{FreePrimary: free, Ring: p.Ring, List: j}
}

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
// pins the cached rows among pins, hints those among hints, then
// classifies the batch positions idx (nil: all) against the Hit-Map. The
// planner routes the pad only the IDs it owns. A hit writes its slot to
// b.Res.Slots[i] and is touched and held; a miss writes -1 for the
// planner to allocate. A hit ID's occurrences all hit; a missed ID's
// first occurrence misses and the rest hit (the row is scheduled for
// fill and resident by [Train]). The pass only reads the Hit-Map and
// writes only the pad's slots and list, so pads run in parallel.
func (f *Frame) PlanPad(p *Pad, b *Batch, idx []int32, pins, hints [][]int64) {
	for _, ids := range pins {
		for _, id := range ids {
			if slot, ok := f.lookup(id); ok {
				f.Pin(slot)
			}
		}
	}
	for _, ids := range hints {
		for _, id := range ids {
			if slot, ok := f.lookup(id); ok {
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
		slot, ok := f.lookup(b.Uniq[i])
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

// Put moves id, which must be in range and not resident, into slot on
// pad p: Hit-Map entry, resident counts and recency position. Without a
// configured row count the Hit-Map doubles to cover id.
func (f *Frame) Put(p *Pad, id int64, slot int32) {
	if id >= int64(len(f.hit)) {
		f.GrowRows(max(2*int64(len(f.hit)), id+1))
	}
	f.hit[id] = slot + 1
	f.slots[slot].key = id
	f.resident++
	p.Resident++
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

// ArmSweep starts the replacement policy's victim sweep at its least
// preferred end. Arm it once the free primary slots are exhausted, after
// the Plan's hits are touched, so the sweep walks the eviction order once
// per Plan (re-arming only when the hints relax).
func (f *Frame) ArmSweep() { f.policy.BeginVictimSweep() }

// Victim consumes the armed sweep's next evictable slot, or -1. For the
// default LRU policy the sweep is driven inline (direct calls, the
// evictability check inlined); other policies go through the interface.
func (f *Frame) Victim() int32 {
	if f.lru != nil {
		for {
			v := f.lru.SweepNext()
			if v < 0 || f.Evictable(int32(v)) {
				return int32(v)
			}
		}
	}
	return int32(f.policy.Victim(f.evictableFn))
}
