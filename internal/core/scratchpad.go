// Package core implements the paper's primary contribution: the
// ScratchPipe GPU scratchpad — an embedding cache that "always hits"
// because the Plan stage looks forward in the training dataset — together
// with the 6-stage software pipeline and the hold-mask hazard discipline of
// §IV (Algorithm 1, Figures 8-11).
//
// The Scratchpad here is the control plane only: it maps sparse feature IDs
// to cache slots and decides what to prefetch, evict, and protect. Moving
// the actual embedding vectors (and accounting for the bytes moved) is the
// training engine's job, which lets the same control logic drive both the
// functional float32 simulation and the paper-scale metadata simulation.
package core

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/intmap"
)

// Config configures one per-table scratchpad manager. The paper
// instantiates one manager per embedding table (§VI-G).
type Config struct {
	// Slots is the nominal cache capacity in embedding rows (the
	// "2-10% of the CPU table" swept in the evaluation).
	Slots int
	// Reserve is extra slot capacity provisioned for the worst case in
	// which every slot the sliding window needs is distinct (§VI-D's
	// 960 MB provisioning). Victim selection prefers evicting over
	// consuming reserve slots; reserve usage is reported in Stats.
	Reserve int
	// Policy selects the replacement policy among unprotected slots
	// (paper default LRU; §VI-E also studies LFU and Random).
	Policy cache.PolicyKind
	// PolicySeed seeds the Random policy.
	PolicySeed int64
	// PastWindow is the number of previous in-flight mini-batches whose
	// slots may not be evicted (3 in the paper: the Plan->Train
	// distance, removing RAW-2/3).
	PastWindow int
	// FutureWindow is the number of upcoming mini-batches whose
	// currently-cached rows may not be evicted (2 in the paper: the
	// Collect->Insert distance, removing RAW-4).
	FutureWindow int
}

// DefaultWindows returns the paper's pipeline window shape.
func DefaultWindows() (past, future int) { return 3, 2 }

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("core: scratchpad: Slots %d <= 0", c.Slots)
	}
	if c.Reserve < 0 {
		return fmt.Errorf("core: scratchpad: Reserve %d < 0", c.Reserve)
	}
	if c.PastWindow < 0 || c.FutureWindow < 0 {
		return fmt.Errorf("core: scratchpad: negative window (past %d, future %d)", c.PastWindow, c.FutureWindow)
	}
	if c.Policy == "" {
		return fmt.Errorf("core: scratchpad: empty policy")
	}
	return nil
}

// Fill schedules one missed embedding: fetch row ID from the CPU table
// ([Collect]) and store it into Slot ([Insert]).
type Fill struct {
	ID   int64
	Slot int32
}

// Eviction schedules one victim: read Slot from the scratchpad ([Collect])
// and write its dirty contents back to CPU row OldID ([Insert]). The paper
// notes every cached embedding is dirty because all cached rows are
// training targets, so every eviction writes back.
type Eviction struct {
	OldID int64
	Slot  int32
}

// PlanResult is the [Plan] stage's output for one mini-batch on one table:
// a stable ID->slot resolution the batch carries through the rest of the
// pipeline, plus the prefetch (Fills) and write-back (Evictions) schedules.
//
// PlanResults are pooled: once a batch has fully retired (left [Train]),
// hand the result back via the planner's Recycle so the next Plan reuses its
// buffers instead of allocating. A recycled result must not be read again.
type PlanResult struct {
	// Seq is the batch sequence number the plan belongs to.
	Seq int
	// UniqueIDs lists the batch's distinct sparse IDs in
	// first-appearance order; Slots[i] is the scratchpad slot assigned
	// to UniqueIDs[i].
	UniqueIDs []int64
	Slots     []int32
	// slotOf indexes UniqueIDs->Slots for the Slot accessor; built
	// lazily on first use so the metadata-mode hot path (which never
	// resolves individual IDs) skips it entirely.
	slotOf  *intmap.Map
	indexed bool
	// OccHits and OccMisses count per-occurrence hits/misses; an
	// occurrence of an ID already scheduled for fill by this same batch
	// counts as a hit (the row will be resident by [Train]).
	OccHits, OccMisses int
	// Fills and Evictions drive [Collect], [Exchange] and [Insert].
	Fills     []Fill
	Evictions []Eviction
	// ReserveAllocs counts fills placed into reserve (overflow) slots
	// because no unprotected victim existed.
	ReserveAllocs int
}

// Slot returns the slot assigned to id, panicking if id was not part of
// the planned batch (which would be a pipeline bug). The first call
// indexes the plan; callers resolving individual IDs do so from one
// goroutine per plan (the pipeline runs each job in one stage at a time).
func (r *PlanResult) Slot(id int64) int32 {
	if !r.indexed {
		r.slotOf.Reserve(len(r.UniqueIDs))
		for i, uid := range r.UniqueIDs {
			r.slotOf.Put(uid, r.Slots[i])
		}
		r.indexed = true
	}
	s, ok := r.slotOf.Get(id)
	if !ok {
		panic(fmt.Sprintf("core: plan %d: id %d was not planned", r.Seq, id))
	}
	return s
}

// reset clears the result for reuse, keeping every buffer's capacity. A
// reset result must not be read until it has been replanned.
func (r *PlanResult) reset() {
	r.Seq = 0
	r.UniqueIDs = r.UniqueIDs[:0]
	r.Slots = r.Slots[:0]
	r.slotOf.Clear()
	r.indexed = false
	r.OccHits, r.OccMisses = 0, 0
	r.Fills = r.Fills[:0]
	r.Evictions = r.Evictions[:0]
	r.ReserveAllocs = 0
}

// Stats aggregates scratchpad activity for the timing model and reports.
type Stats struct {
	// Queries/Hits/Misses are per-occurrence counts over all planned
	// batches.
	Queries, Hits, Misses int64
	// UniqueQueries/UniqueHits/UniqueMisses are per-distinct-ID counts.
	UniqueQueries, UniqueHits, UniqueMisses int64
	// Fills is the number of CPU->GPU row prefetches scheduled
	// (== UniqueMisses).
	Fills int64
	// Evictions is the number of victim rows written back GPU->CPU.
	Evictions int64
	// ReserveAllocs counts allocations that had to use reserve slots.
	ReserveAllocs int64
	// ReservePeak is the high-water mark of simultaneously occupied
	// reserve slots (the §VI-D overhead metric).
	ReservePeak int
	// Planned counts Plan calls; Released counts Release calls.
	Planned, Released int64
}

// Scratchpad is the per-table cache manager: the Hit-Map and the
// replacement policy over the slot discipline its Frame holds.
type Scratchpad struct {
	Frame
	policy cache.Policy
	// lru is the devirtualized fast path when policy is the default
	// LRU: recency touches and victim sweeps go through concrete,
	// inlinable calls (nil for other policies).
	lru *cache.LRUPolicy

	hitMap      *intmap.Map // sparse ID -> slot
	freePrimary []int32     // unused slots in [0, Slots)
	inFlight    BatchRing   // FIFO, oldest first
	sweepArmed  bool        // victim sweep armed for the current Plan

	// evictableFn is the victim predicate handed to the policy, bound
	// once at construction so the hot path passes a reused func value
	// instead of allocating a fresh closure per Plan.
	evictableFn func(slot int) bool
	// missIdx is scratch: each miss's position in UniqueIDs/Slots.
	missIdx []int
}

// NewScratchpad builds a scratchpad manager from cfg: Reset on a zero
// Scratchpad.
func NewScratchpad(cfg Config) (*Scratchpad, error) {
	s := &Scratchpad{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reinitialises s for cfg into exactly the state NewScratchpad(cfg)
// builds — an empty Hit-Map of the same capacity, every slot empty, the
// policy's initial order, the free lists in their initial pop order and
// zero statistics — so every later Plan, Stats and ForEach matches a
// fresh scratchpad's. It keeps the capacity of every buffer and the pools
// of recycled plans and hold sets, which is what makes a reset cheaper
// than a rebuild. Batches still in flight are dropped (their hold sets
// return to the pool). On error s is unchanged.
func (s *Scratchpad) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	total := cfg.Slots + cfg.Reserve
	if cfg.Policy == cache.LRU {
		if s.lru == nil {
			s.lru = &cache.LRUPolicy{}
		}
		s.lru.Reset(total)
		s.policy = s.lru
	} else {
		p, err := cache.NewPolicy(cfg.Policy, total, cfg.PolicySeed)
		if err != nil {
			return err
		}
		s.policy, s.lru = p, nil
	}
	s.ResetFrame(cfg)

	if s.hitMap == nil {
		s.hitMap = &intmap.Map{}
	}
	// Sized for the population the window actually reaches: the nominal
	// slots plus half the worst-case reserve (hold pressure routinely
	// spills into reserve, but rarely to the provisioning bound). The
	// map grows transparently past that; Frame.Insert repairs the
	// slot->entry reverse index a growth invalidates.
	s.hitMap.Reset(cfg.Slots + cfg.Reserve/2)
	if s.evictableFn == nil {
		s.evictableFn = func(slot int) bool { return s.Evictable(int32(slot)) }
	}
	s.freePrimary = resized(s.freePrimary, cfg.Slots)
	for i := range s.freePrimary {
		s.freePrimary[i] = int32(cfg.Slots - 1 - i)
	}
	s.inFlight.Clear()
	s.sweepArmed = false
	return nil
}

// Len returns the number of cached rows.
func (s *Scratchpad) Len() int { return s.hitMap.Len() }

// Contains reports whether sparse ID id currently has a slot.
func (s *Scratchpad) Contains(id int64) bool {
	_, ok := s.hitMap.Get(id)
	return ok
}

// Plan runs the [Plan] stage for one mini-batch: queries the Hit-Map,
// assigns slots to missed IDs by evicting unprotected victims (or drawing
// on free/reserve slots), and registers the batch's holds. future holds the
// sparse IDs of the next FutureWindow mini-batches (outer index: distance
// ahead); their currently-cached slots are pinned against eviction for the
// duration of this call, which removes RAW-4 exactly as §IV-C prescribes.
//
// Plan fails only when slots+reserve cannot accommodate the window's
// worst-case working set; size Reserve with WorstCaseReserve to make that
// impossible.
func (s *Scratchpad) Plan(seq int, ids []int64, future [][]int64) (*PlanResult, error) {
	return s.PlanWithHints(seq, ids, future, nil)
}

// PlanWithHints is Plan with deep look-ahead: hints carries the sparse IDs
// of batches *beyond* the hazard window (distance > FutureWindow). Hinted
// rows are demoted, not protected: victim selection prefers unhinted slots
// and falls back to hinted ones only when nothing else is evictable, so
// safety is unchanged while soon-to-be-reused rows tend to stay resident.
//
// ids is the batch's occurrence stream; it is deduplicated into reusable
// scratch and handed to PlanUniqueWithHints, which produces an identical
// result. Callers that already hold the batch's distinct IDs and counts
// (the dataset records them once per batch) should call
// PlanUniqueWithHints directly and skip the extra pass.
func (s *Scratchpad) PlanWithHints(seq int, ids []int64, future, hints [][]int64) (*PlanResult, error) {
	uniq, cnt := s.Dedup(ids)
	return s.PlanUniqueWithHints(seq, uniq, cnt, future, hints)
}

// PlanUniqueWithHints is the planner's native form: uniq lists the
// batch's distinct sparse IDs in first-appearance order and counts their
// per-ID occurrence multiplicities (counts may be nil, meaning one
// occurrence each). future and hints may carry either occurrence or
// distinct ID lists — pinning is idempotent — but distinct lists probe
// proportionally less.
func (s *Scratchpad) PlanUniqueWithHints(seq int, uniq []int64, counts []int32, future, hints [][]int64) (*PlanResult, error) {
	res, start, err := s.BeginPlan(seq, future, hints)
	if err != nil {
		return nil, err
	}
	for _, fids := range future[start:] {
		for _, id := range fids {
			if slot, ok := s.hitMap.Get(id); ok {
				s.Pin(slot)
			}
		}
	}
	for _, hids := range hints {
		for _, id := range hids {
			if slot, ok := s.hitMap.Get(id); ok {
				s.Hint(slot)
			}
		}
	}

	// Presize every per-batch buffer up front: one reallocation on the
	// first batch instead of a doubling cascade on every growth step.
	// A batch with more distinct IDs than any before regrows on
	// append's amortized schedule, leaving headroom, so the warm Plan
	// stops allocating once the batch sizes have been sampled.
	res.UniqueIDs = slices.Grow(res.UniqueIDs, len(uniq))
	res.Slots = slices.Grow(res.Slots, len(uniq))
	held := s.inFlight.Spare(len(uniq))
	s.missIdx = slices.Grow(s.missIdx[:0], len(uniq))

	// Pass 1: classify every distinct ID against the Hit-Map, register
	// hits (hold + recency touch), and record misses in first-appearance
	// order with placeholder slots. Occurrence-level counters derive
	// from the multiplicities: a hit ID's occurrences all hit; a missed
	// ID's first occurrence misses and the rest count as hits (the row
	// is already scheduled for fill and resident by [Train]).
	missIdx := s.missIdx[:0]
	for i, id := range uniq {
		c := 1
		if counts != nil {
			c = int(counts[i])
		}
		if slot, ok := s.hitMap.Get(id); ok {
			res.OccHits += c
			res.UniqueIDs = append(res.UniqueIDs, id)
			res.Slots = append(res.Slots, slot)
			if s.lru != nil {
				s.lru.OnAccess(int(slot))
			} else {
				s.policy.OnAccess(int(slot))
			}
			s.Hold(slot)
			held = append(held, slot)
			continue
		}
		res.OccMisses++
		res.OccHits += c - 1
		res.UniqueIDs = append(res.UniqueIDs, id)
		res.Slots = append(res.Slots, -1)
		missIdx = append(missIdx, len(res.Slots)-1)
	}
	s.missIdx = missIdx

	// Pass 2: allocate slots for the misses. Hits are already touched,
	// so the policies' victim sweeps (armed lazily once the free list
	// runs dry) walk the eviction order exactly once per Plan.
	res.Fills = slices.Grow(res.Fills, len(missIdx))
	res.Evictions = slices.Grow(res.Evictions, len(missIdx))
	s.sweepArmed = false
	for _, k := range missIdx {
		id := res.UniqueIDs[k]
		slot, err := s.allocate(res)
		if err != nil {
			return nil, err
		}
		s.Insert(s.hitMap, id, slot)
		if s.lru != nil {
			s.lru.OnInsert(int(slot))
		} else {
			s.policy.OnInsert(int(slot))
		}
		s.Hold(slot)
		held = append(held, slot)
		res.Slots[k] = slot
		res.Fills = append(res.Fills, Fill{ID: id, Slot: slot})
	}
	s.inFlight.Push(HeldBatch{Seq: seq, Slots: held})
	s.EndPlan(res)
	return res, nil
}

// victim picks the next evictable slot of the armed sweep, or -1. For
// the default LRU policy the sweep is driven inline (direct calls, the
// evictability check inlined); other policies go through the interface.
func (s *Scratchpad) victim() int {
	if s.lru != nil {
		for {
			v := s.lru.SweepNext()
			if v < 0 || s.Evictable(int32(v)) {
				return v
			}
		}
	}
	return s.policy.Victim(s.evictableFn)
}

// allocate finds a slot for a missed ID of res: free primary slot first,
// then an unprotected victim (whose eviction it schedules in res), then a
// reserve slot.
func (s *Scratchpad) allocate(res *PlanResult) (int32, error) {
	if n := len(s.freePrimary); n > 0 {
		slot := s.freePrimary[n-1]
		s.freePrimary = s.freePrimary[:n-1]
		return slot, nil
	}
	// Arm the policy's victim sweep on first eviction need of this Plan
	// (after the free list is exhausted, so free-slot OnInserts can no
	// longer disturb the sweep cursor).
	if !s.sweepArmed {
		s.policy.BeginVictimSweep()
		s.sweepArmed = true
	}
	v := s.victim()
	if v < 0 && s.RelaxHints() {
		// Every unprotected slot is merely hinted: sweep once more.
		s.policy.BeginVictimSweep()
		v = s.victim()
	}
	if v >= 0 {
		slot := int32(v)
		res.Evictions = append(res.Evictions, Eviction{OldID: s.Evict(s.hitMap, slot), Slot: slot})
		return slot, nil
	}
	return s.TakeReserve(res)
}

// Release drops the oldest in-flight batch's holds. The engine calls it
// when that batch enters [Train]: from that point the batch's slots may be
// chosen as victims again (their eviction read would happen strictly after
// the training writes, per the pipeline's stage spacing).
func (s *Scratchpad) Release(seq int) error {
	if err := s.ReleaseBatch(&s.inFlight, seq); err != nil {
		return err
	}
	s.EndRelease()
	return nil
}

// Prewarm fills the scratchpad's free capacity with IDs drawn from sample
// before training starts, approximating the steady-state content of an LRU
// cache under the trace's access distribution (the most recent distinct
// draws). onFill, when non-nil, is invoked for every inserted row so
// functional engines can copy the corresponding embedding values into the
// storage array. It returns the number of rows inserted (see Frame.Warm
// for the draw rule).
func (s *Scratchpad) Prewarm(sample func() int64, onFill func(id int64, slot int32)) int {
	return s.PrewarmRows(0, sample, onFill)
}

// PrewarmRows is Prewarm for callers that know the sparse ID domain
// [0, rows): the duplicate-draw check then runs against a bitmap instead
// of the Hit-Map. rows <= 0 falls back to Hit-Map probing.
func (s *Scratchpad) PrewarmRows(rows int64, sample func() int64, onFill func(id int64, slot int32)) int {
	return s.Warm((*warmer)(s), rows, sample, onFill)
}

// warmer is the Scratchpad's side of Frame.Warm.
type warmer Scratchpad

func (w *warmer) Free() bool { return len(w.freePrimary) > 0 }

func (w *warmer) Cached(id int64) bool { return (*Scratchpad)(w).Contains(id) }

func (w *warmer) Place(id int64) int32 {
	n := len(w.freePrimary) - 1
	slot := w.freePrimary[n]
	w.freePrimary = w.freePrimary[:n]
	w.Insert(w.hitMap, id, slot)
	w.policy.OnInsert(int(slot))
	return slot
}

// ForEach visits every cached (sparse ID, slot) pair in unspecified order;
// engines use it to flush dirty cached rows back to the CPU tables at the
// end of training.
func (s *Scratchpad) ForEach(f func(id int64, slot int32)) {
	s.hitMap.ForEach(f)
}

// WorstCaseReserve returns the reserve capacity that guarantees Plan can
// never fail: with windowBatches = past + current + future batches in
// flight, at most windowBatches*maxUniquePerBatch slots are protected
// simultaneously, so provisioning that many slots beyond... the nominal
// capacity guarantees an unprotected slot (or a free reserve slot) always
// exists. This is the paper's §VI-D worst-case sizing (6 mini-batches'
// gathers, 960 MB under the default configuration).
func WorstCaseReserve(cfg Config, maxUniquePerBatch int) int {
	window := cfg.PastWindow + 1 + cfg.FutureWindow
	need := window*maxUniquePerBatch + 1
	if need <= cfg.Slots {
		return 0
	}
	return need - cfg.Slots
}
