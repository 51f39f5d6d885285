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
// hand the result back via Scratchpad.Recycle so the next Plan reuses its
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

// NewPlanResult builds an empty result with its lazy index initialized;
// external plan producers (the sharded manager) pool results through
// NewPlanResult/Reset exactly like the scratchpad's internal pool.
func NewPlanResult() *PlanResult {
	return &PlanResult{slotOf: intmap.New(0)}
}

// Reset clears the result for reuse, keeping every buffer's capacity. A
// reset result must not be read until it has been replanned.
func (r *PlanResult) Reset() {
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

// slotMeta is one slot's control metadata, packed so the hold/pin/key
// evictability predicate reads a single 24-byte record.
type slotMeta struct {
	// key is the cached sparse ID (-1 when the slot is empty).
	key int64
	// pinStamp is the epoch of the slot's latest look-ahead pin.
	pinStamp int64
	// holds counts in-flight batches referencing the slot.
	holds int32
	// entryIdx is key's entry position inside hitMap, so an eviction
	// deletes its victim's stale key without re-probing (the victim's
	// entry is cache-cold by eviction time). Backward-shift relocations
	// report back through onMove; map growth triggers a full reindex.
	entryIdx int32
}

// Scratchpad is the per-table cache manager: the Hit-Map, the hold
// discipline that substitutes for Algorithm 1's Hold-mask bitmask queue,
// and the replacement policy.
//
// Where the paper ages a per-slot bitmask by shifting it every cycle, this
// implementation keeps an explicit per-slot hold counter plus a FIFO of
// in-flight batches' slot sets: a slot is protected exactly while some
// batch inside the sliding window references it, which is the same
// predicate the bitmask encodes ("mask != 0"), in a form that is testable
// and O(touched slots) instead of O(cache size) per cycle.
type Scratchpad struct {
	cfg    Config
	policy cache.Policy
	// lru is the devirtualized fast path when policy is the default
	// LRU: recency touches and victim sweeps go through concrete,
	// inlinable calls (nil for other policies).
	lru *cache.LRUPolicy

	hitMap *intmap.Map // sparse ID -> slot
	// slots holds the per-slot control metadata in one array of structs
	// so the victim sweep's evictability check (key, pin stamp, hold
	// count) touches one cache line per candidate instead of three.
	slots  []slotMeta
	onMove func(slot int32, newIdx int)

	// slots[slot].pinStamp > pinEpoch-pinValid marks the slot as pinned by
	// the current Plan's sliding window (epoch stamping avoids clearing
	// or hashing a per-plan set; checks are O(1) array reads).
	//
	// pinValid is the number of consecutive Plans one stamp protects.
	// When the hold window is at least as wide as the future window
	// (the paper's 3 >= 2), a batch's cached rows only need stamping
	// once — when the batch enters the look-ahead window — because any
	// row of that batch cached *later* was filled by an in-window batch
	// and carries that batch's hold for at least as long; steady-state
	// Plans therefore probe one future batch instead of all of them,
	// with bit-identical eviction decisions. With a shrunken hold
	// window (fault injection) pinValid stays 1 and every Plan
	// re-stamps the whole window, the original discipline.
	pinEpoch      int64
	pinValid      int64
	lastPinnedSeq int
	havePinned    bool
	// hintStamp[slot] == pinEpoch marks the slot as merely *hinted*:
	// a batch beyond the hazard window will reference it, so prefer not
	// to evict it — but evicting it is safe if nothing else is
	// available (Belady-style deep look-ahead, §III-C's "intelligently
	// store (and evict) not just the current but also future").
	hintStamp   []int64
	hintRelaxed bool // victim search fell back to hinted slots this Plan

	freePrimary []int32 // unused slots in [0, Slots)
	freeReserve []int32 // unused slots in [Slots, Slots+Reserve)

	inFlight     BatchRing // FIFO, oldest first
	reserveInUse int
	sweepArmed   bool // victim sweep armed for the current Plan

	// evictableFn is the victim predicate handed to the policy, bound
	// once at construction so the hot path passes a reused func value
	// instead of allocating a fresh closure per Plan.
	evictableFn func(slot int) bool

	// Free lists recycling all per-batch buffers: Plan pops, Recycle
	// and Release push. Steady-state Plan allocates nothing.
	planPool []*PlanResult
	heldPool [][]int32
	// missIdx is scratch: each miss's position in UniqueIDs/Slots.
	missIdx []int
	// dedup/uniqScratch/cntScratch back the occurrence-list entry
	// points (Plan/PlanWithHints), which deduplicate into these before
	// running the unique-list planner.
	dedup       *intmap.Map
	uniqScratch []int64
	cntScratch  []int32
	// seen is PrewarmRows' rows-wide duplicate-draw bitmap (1.25 MB per
	// table at 10M rows), kept across Resets and cleared per use.
	seen []uint64

	stats Stats
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
	s.cfg = cfg

	if s.hitMap == nil {
		s.hitMap = &intmap.Map{}
	}
	// Sized for the population the window actually reaches: the nominal
	// slots plus half the worst-case reserve (hold pressure routinely
	// spills into reserve, but rarely to the provisioning bound). The
	// map grows transparently past that; growth invalidates the
	// slot->entry reverse index, which reindex rebuilds (see
	// allocate/Prewarm).
	s.hitMap.Reset(cfg.Slots + cfg.Reserve/2)
	s.slots = resized(s.slots, total)
	for i := range s.slots {
		s.slots[i] = slotMeta{key: -1}
	}
	if s.evictableFn == nil {
		s.evictableFn = s.isEvictable
		s.onMove = func(slot int32, newIdx int) { s.slots[slot].entryIdx = int32(newIdx) }
	}
	// hintStamp is sized lazily on the first hinted Plan: engines
	// without deep look-ahead never pay for it.
	s.hintStamp = s.hintStamp[:0]
	s.hintRelaxed = false

	s.pinValid = 1
	if cfg.FutureWindow > 1 && cfg.PastWindow >= cfg.FutureWindow {
		s.pinValid = int64(cfg.FutureWindow)
	}
	// Start the epoch clock at pinValid so a zeroed pinStamp can never
	// satisfy `stamp > epoch-pinValid`.
	s.pinEpoch = s.pinValid
	s.lastPinnedSeq, s.havePinned = 0, false

	s.freePrimary = resized(s.freePrimary, cfg.Slots)
	for i := range s.freePrimary {
		s.freePrimary[i] = int32(cfg.Slots - 1 - i)
	}
	s.freeReserve = resized(s.freeReserve, cfg.Reserve)
	for i := range s.freeReserve {
		s.freeReserve[i] = int32(total - 1 - i)
	}
	for s.inFlight.Len() > 0 {
		if hb := s.inFlight.Pop(); hb.Slots != nil {
			s.heldPool = append(s.heldPool, hb.Slots)
		}
	}
	s.reserveInUse = 0
	s.sweepArmed = false
	s.stats = Stats{}
	return nil
}

// resized returns buf with length n, reusing its capacity when it
// suffices; the contents are undefined (callers overwrite them).
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// isEvictable is the victim predicate: a slot is fair game when nothing
// holds or pins it, it is occupied, and (unless the search has relaxed)
// deep look-ahead has not hinted it for reuse.
func (s *Scratchpad) isEvictable(slot int) bool {
	m := &s.slots[slot]
	if m.holds != 0 || m.pinStamp > s.pinEpoch-s.pinValid || m.key < 0 {
		return false
	}
	return s.hintRelaxed || s.hintStamp[slot] != s.pinEpoch
}

// getPlanResult pops a recycled PlanResult or builds a fresh one.
func (s *Scratchpad) getPlanResult() *PlanResult {
	if n := len(s.planPool); n > 0 {
		res := s.planPool[n-1]
		s.planPool[n-1] = nil
		s.planPool = s.planPool[:n-1]
		return res
	}
	return NewPlanResult()
}

// getHeldSlots pops a recycled hold-list buffer or returns nil (append
// will allocate the first time around).
func (s *Scratchpad) getHeldSlots() []int32 {
	if n := len(s.heldPool); n > 0 {
		buf := s.heldPool[n-1]
		s.heldPool[n-1] = nil
		s.heldPool = s.heldPool[:n-1]
		return buf[:0]
	}
	return nil
}

// Recycle returns a retired batch's plan buffers to the free list. Call
// it once the plan can no longer be read (the batch has left [Train]);
// passing nil is a no-op. Recycling is what makes the steady-state Plan
// path allocation-free.
func (s *Scratchpad) Recycle(res *PlanResult) {
	if res == nil {
		return
	}
	res.Reset()
	s.planPool = append(s.planPool, res)
}

// Capacity returns the nominal slot count (excluding reserve).
func (s *Scratchpad) Capacity() int { return s.cfg.Slots }

// TotalSlots returns nominal + reserve capacity.
func (s *Scratchpad) TotalSlots() int { return s.cfg.Slots + s.cfg.Reserve }

// Len returns the number of cached rows.
func (s *Scratchpad) Len() int { return s.hitMap.Len() }

// Contains reports whether sparse ID id currently has a slot.
func (s *Scratchpad) Contains(id int64) bool {
	_, ok := s.hitMap.Get(id)
	return ok
}

// InFlight returns the number of batches currently holding slots.
func (s *Scratchpad) InFlight() int { return s.inFlight.Len() }

// Stats returns accumulated counters.
func (s *Scratchpad) Stats() Stats { return s.stats }

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
	if s.dedup == nil {
		s.dedup = intmap.New(len(ids))
	}
	uniq, cnt := s.uniqScratch[:0], s.cntScratch[:0]
	if cap(uniq) < len(ids) {
		uniq = make([]int64, 0, len(ids))
		cnt = make([]int32, 0, len(ids))
	}
	uniq, cnt = intmap.Dedup(ids, s.dedup, uniq, cnt)
	s.uniqScratch, s.cntScratch = uniq, cnt
	return s.PlanUniqueWithHints(seq, uniq, cnt, future, hints)
}

// PlanUniqueWithHints is the planner's native form: uniq lists the
// batch's distinct sparse IDs in first-appearance order and counts their
// per-ID occurrence multiplicities (counts may be nil, meaning one
// occurrence each). future and hints may carry either occurrence or
// distinct ID lists — pinning is idempotent — but distinct lists probe
// proportionally less.
func (s *Scratchpad) PlanUniqueWithHints(seq int, uniq []int64, counts []int32, future, hints [][]int64) (*PlanResult, error) {
	if got := len(future); got > s.cfg.FutureWindow {
		return nil, fmt.Errorf("core: plan %d: %d future batches exceeds future window %d", seq, got, s.cfg.FutureWindow)
	}
	// Pin the next FutureWindow batches' cached rows (evicting those
	// would race their [Collect] against our [Insert] write-back, RAW-4).
	// The *current* batch's rows need no pin pass: every hit registers a
	// hold in pass 1 below, and victim selection (pass 2) only starts
	// after pass 1 has finished, so "an early miss evicting a row a later
	// occurrence of this same batch still needs" is already impossible —
	// the hold protects it through the whole window. Together these are
	// the paper's "three past, one current, and two future" superset.
	//
	// With multi-epoch stamps (pinValid > 1) only batches newly entering
	// the window are probed; earlier entrants' stamps are still valid,
	// and rows they cached after their stamping were filled by in-window
	// batches whose holds outlast the future window (see pinValid).
	s.pinEpoch++
	start := 0
	if s.pinValid > 1 && s.havePinned {
		if start = s.lastPinnedSeq - seq; start < 0 {
			start = 0
		} else if start > len(future) {
			start = len(future)
		}
	}
	for _, fids := range future[start:] {
		s.pinIDs(fids)
	}
	if n := seq + len(future); len(future) > 0 && (!s.havePinned || n > s.lastPinnedSeq) {
		s.lastPinnedSeq = n
		s.havePinned = true
	}
	if len(hints) > 0 && len(s.hintStamp) == 0 {
		s.hintStamp = resized(s.hintStamp, s.TotalSlots())
		clear(s.hintStamp)
	}
	for _, hids := range hints {
		for _, id := range hids {
			if slot, ok := s.hitMap.Get(id); ok {
				s.hintStamp[slot] = s.pinEpoch
			}
		}
	}

	res := s.getPlanResult()
	res.Seq = seq
	s.hintRelaxed = len(hints) == 0

	// Presize every per-batch buffer up front: one reallocation on the
	// first batch instead of a doubling cascade on every growth step.
	// A batch with more distinct IDs than any before regrows on
	// append's amortized schedule, leaving headroom, so the warm Plan
	// stops allocating once the batch sizes have been sampled.
	res.UniqueIDs = slices.Grow(res.UniqueIDs, len(uniq))
	res.Slots = slices.Grow(res.Slots, len(uniq))
	held := slices.Grow(s.getHeldSlots(), len(uniq))
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
			s.slots[slot].holds++
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
		slot, evicted, fromReserve, err := s.allocate()
		if err != nil {
			s.heldPool = append(s.heldPool, held)
			return nil, fmt.Errorf("core: plan %d: %w", seq, err)
		}
		if evicted >= 0 {
			res.Evictions = append(res.Evictions, Eviction{OldID: evicted, Slot: slot})
		}
		if fromReserve {
			res.ReserveAllocs++
		}
		cap0 := s.hitMap.Cap()
		at := s.hitMap.PutIdx(id, slot)
		if s.hitMap.Cap() != cap0 {
			s.reindex()
		}
		s.slots[slot].entryIdx = int32(at)
		s.slots[slot].key = id
		if s.lru != nil {
			s.lru.OnInsert(int(slot))
		} else {
			s.policy.OnInsert(int(slot))
		}
		s.slots[slot].holds++
		held = append(held, slot)
		res.Slots[k] = slot
		res.Fills = append(res.Fills, Fill{ID: id, Slot: slot})
	}
	s.inFlight.Push(HeldBatch{Seq: seq, Slots: held})

	s.stats.Planned++
	s.stats.Queries += int64(res.OccHits + res.OccMisses)
	s.stats.Hits += int64(res.OccHits)
	s.stats.Misses += int64(res.OccMisses)
	s.stats.UniqueQueries += int64(len(res.UniqueIDs))
	s.stats.UniqueMisses += int64(len(res.Fills))
	s.stats.UniqueHits += int64(len(res.UniqueIDs) - len(res.Fills))
	s.stats.Fills += int64(len(res.Fills))
	s.stats.Evictions += int64(len(res.Evictions))
	s.stats.ReserveAllocs += int64(res.ReserveAllocs)
	return res, nil
}

// victim picks the next evictable slot of the armed sweep, or -1. For
// the default LRU policy the sweep is driven inline (direct calls, the
// evictability check inlined); other policies go through the interface.
func (s *Scratchpad) victim() int {
	if s.lru != nil {
		for {
			v := s.lru.SweepNext()
			if v < 0 || s.isEvictable(v) {
				return v
			}
		}
	}
	return s.policy.Victim(s.evictableFn)
}

// reindex rebuilds every slot's hitMap entry position after the map
// grew (entry positions move wholesale on a rehash).
func (s *Scratchpad) reindex() {
	s.hitMap.ForEachIdx(func(idx int, _ int64, slot int32) {
		s.slots[slot].entryIdx = int32(idx)
	})
}

// pinIDs stamps the scratchpad locations of every currently-cached ID in
// idList as pinned for the current Plan epoch.
func (s *Scratchpad) pinIDs(idList []int64) {
	for _, id := range idList {
		if slot, ok := s.hitMap.Get(id); ok {
			s.slots[slot].pinStamp = s.pinEpoch
		}
	}
}

// allocate finds a slot for a missed ID: free primary slot first, then an
// unprotected victim (per s.evictableFn), then a reserve slot. evicted is
// the displaced sparse ID or -1.
func (s *Scratchpad) allocate() (slot int32, evicted int64, fromReserve bool, err error) {
	if n := len(s.freePrimary); n > 0 {
		slot = s.freePrimary[n-1]
		s.freePrimary = s.freePrimary[:n-1]
		return slot, -1, false, nil
	}
	// Arm the policy's victim sweep on first eviction need of this Plan
	// (after the free list is exhausted, so free-slot OnInserts can no
	// longer disturb the sweep cursor).
	if !s.sweepArmed {
		s.policy.BeginVictimSweep()
		s.sweepArmed = true
	}
	if v := s.victim(); v >= 0 {
		old := s.slots[v].key
		s.hitMap.DeleteAt(int(s.slots[v].entryIdx), s.onMove)
		s.slots[v].key = -1
		return int32(v), old, false, nil
	}
	// Every unprotected slot is merely hinted (deep look-ahead says a
	// later batch wants it): relax the preference — evicting hinted
	// rows is safe, just suboptimal — and sweep once more.
	if !s.hintRelaxed {
		s.hintRelaxed = true
		s.policy.BeginVictimSweep()
		if v := s.victim(); v >= 0 {
			old := s.slots[v].key
			s.hitMap.DeleteAt(int(s.slots[v].entryIdx), s.onMove)
			s.slots[v].key = -1
			return int32(v), old, false, nil
		}
	}
	if n := len(s.freeReserve); n > 0 {
		slot = s.freeReserve[n-1]
		s.freeReserve = s.freeReserve[:n-1]
		s.reserveInUse++
		if s.reserveInUse > s.stats.ReservePeak {
			s.stats.ReservePeak = s.reserveInUse
		}
		return slot, -1, true, nil
	}
	return 0, -1, false, fmt.Errorf("scratchpad exhausted: %d slots + %d reserve all protected (in-flight %d batches)",
		s.cfg.Slots, s.cfg.Reserve, s.inFlight.Len())
}

// Release drops the oldest in-flight batch's holds. The engine calls it
// when that batch enters [Train]: from that point the batch's slots may be
// chosen as victims again (their eviction read would happen strictly after
// the training writes, per the pipeline's stage spacing).
func (s *Scratchpad) Release(seq int) error {
	if s.inFlight.Len() == 0 {
		return fmt.Errorf("core: release %d: no in-flight batches", seq)
	}
	if got := s.inFlight.Front().Seq; got != seq {
		return fmt.Errorf("core: release %d: oldest in-flight batch is %d (releases must be FIFO)", seq, got)
	}
	hb := s.inFlight.Pop()
	for _, slot := range hb.Slots {
		if s.slots[slot].holds <= 0 {
			return fmt.Errorf("core: release %d: slot %d hold underflow", seq, slot)
		}
		s.slots[slot].holds--
	}
	if hb.Slots != nil {
		s.heldPool = append(s.heldPool, hb.Slots)
	}
	s.stats.Released++
	return nil
}

// Held reports whether a slot is currently protected by any in-flight
// batch (the hold-mask "!= 0" predicate); exported for invariant tests.
func (s *Scratchpad) Held(slot int32) bool { return s.slots[slot].holds != 0 }

// Key returns the sparse ID cached in slot, or -1. Exported for tests.
func (s *Scratchpad) Key(slot int32) int64 { return s.slots[slot].key }

// Prewarm fills the scratchpad's free capacity with IDs drawn from sample
// before training starts, approximating the steady-state content of an LRU
// cache under the trace's access distribution (the most recent distinct
// draws). onFill, when non-nil, is invoked for every inserted row so
// functional engines can copy the corresponding embedding values into the
// storage array. It returns the number of rows inserted.
//
// Prewarm draws at most 8x the nominal capacity: rows that have not
// appeared within that many draws are cold enough that their absence from
// the warm cache has negligible effect on measured hit rates, and an
// unbounded fill would degenerate into a coupon-collector walk over the
// distribution's long tail.
func (s *Scratchpad) Prewarm(sample func() int64, onFill func(id int64, slot int32)) int {
	return s.PrewarmRows(0, sample, onFill)
}

// PrewarmRows is Prewarm for callers that know the sparse ID domain:
// with rows > 0 the duplicate-draw check runs against a rows-wide bitmap
// (a few KB, cache-resident) instead of probing the hit map once per
// draw, inserting identical content several times faster. rows <= 0
// falls back to hit-map probing.
func (s *Scratchpad) PrewarmRows(rows int64, sample func() int64, onFill func(id int64, slot int32)) int {
	if s.inFlight.Len() != 0 {
		panic("core: Prewarm with batches in flight")
	}
	var seen []uint64
	if rows > 0 {
		s.seen = resized(s.seen, int((rows+63)/64))
		clear(s.seen)
		seen = s.seen
	}
	inserted := 0
	limit := 8*s.cfg.Slots + 100
	for draws := 0; len(s.freePrimary) > 0 && draws < limit; draws++ {
		id := sample()
		n := len(s.freePrimary)
		slot := s.freePrimary[n-1]
		var at int
		if seen != nil {
			w, bit := id/64, uint64(1)<<(uint64(id)%64)
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
			cap0 := s.hitMap.Cap()
			at = s.hitMap.PutIdx(id, slot)
			if s.hitMap.Cap() != cap0 {
				s.reindex()
			}
		} else {
			cap0 := s.hitMap.Cap()
			var dup bool
			_, at, dup = s.hitMap.GetOrPut(id, slot)
			// GetOrPut may grow the table even when the key turns
			// out to be a duplicate: reindex before skipping.
			if s.hitMap.Cap() != cap0 {
				s.reindex()
			}
			if dup {
				continue
			}
		}
		s.slots[slot].entryIdx = int32(at)
		s.freePrimary = s.freePrimary[:n-1]
		s.slots[slot].key = id
		s.policy.OnInsert(int(slot))
		if onFill != nil {
			onFill(id, slot)
		}
		inserted++
	}
	return inserted
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
