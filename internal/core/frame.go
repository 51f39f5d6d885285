package core

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/intmap"
)

// slotMeta is one slot's control metadata, packed so the hold/pin/key
// evictability predicate reads a single 24-byte record.
type slotMeta struct {
	// key is the cached sparse ID (-1 when the slot is empty); an
	// eviction clears the victim's Hit-Map entry through it.
	key int64
	// pinStamp is the epoch of the slot's latest look-ahead pin.
	pinStamp int64
	// holds counts in-flight batches referencing the slot.
	holds int32
}

// Frame is one table's slot discipline (§IV-C, Algorithm 1) — hold the
// past window, pin the future window, evict only what neither protects —
// written once for every planner. It owns the table's one Hit-Map, the
// per-slot metadata and the evictability predicate, the pin epoch with
// its hint stamps, the reserve budget, the replacement policy and its
// victim sweep, the PlanResult pool, the FIFO hold release and the
// statistics. The per-pad Plan pass (PlanPad) runs on it. The planner
// supplies the Pads — free primary slots, hold ring and recency list
// each — and the miss loop and Prewarm: internal/shard's Manager embeds
// a Frame and keeps one Pad per shard, each on its own list of the
// frame's LRU.
//
// The pads' parallel Plan passes only read the Hit-Map, and every insert
// and eviction runs serially (the manager's miss loop, Prewarm, Reshard
// and Evacuate), so the map needs no lock.
//
// Where the paper ages a per-slot bitmask by shifting it every cycle, the
// frame keeps an explicit per-slot hold counter plus a FIFO of in-flight
// batches' slot sets: a slot is protected exactly while some batch inside
// the sliding window references it, which is the same predicate the
// bitmask encodes ("mask != 0"), in a form that is testable and O(touched
// slots) instead of O(cache size) per cycle.
type Frame struct {
	cfg Config
	// hit is the Hit-Map, indexed by sparse ID (IDs are table rows):
	// hit[id] is id's slot+1, 0 when id is not resident. It is sized
	// once from cfg.Rows (grown by doubling when the rows are unknown),
	// and every entry outside the resident rows is zero, including the
	// capacity past its length. resident counts the resident rows.
	hit      []int32
	resident int
	// slots holds the per-slot control metadata in one array of structs
	// so the victim sweep's evictability check (key, pin stamp, hold
	// count) touches one cache line per candidate instead of three.
	slots []slotMeta

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

	freeReserve  []int32 // unused slots in [Slots, Slots+Reserve)
	reserveInUse int

	// policy orders the unprotected slots for eviction; lru is the same
	// policy devirtualized when it is the default LRU (nil otherwise),
	// whose lists the pads' recency orders are. evictableFn is the
	// victim predicate handed to other policies, bound once so the hot
	// path passes a reused func value instead of a fresh closure.
	policy      cache.Policy
	lru         *cache.LRUPolicy
	evictableFn func(slot int) bool
	missIdx     []int32 // Misses' scratch

	// planPool recycles PlanResults: BeginPlan pops, Recycle pushes.
	planPool []*PlanResult
	// dedup/uniqScratch/cntScratch back the occurrence-list entry point
	// (Dedup), which deduplicates into these before the unique-list
	// planner runs.
	dedup       *intmap.Map
	uniqScratch []int64
	cntScratch  []int32

	stats Stats
}

// ResetFrame reinitialises f for cfg (already validated) with lists
// recency lists (several only under LRU): an empty Hit-Map, every slot
// empty and off every list, the reserve stack in its initial pop order,
// a fresh pin epoch and zero statistics. It keeps every buffer's
// capacity and the pool of recycled plans. It fails, leaving f
// unchanged, on an unknown policy.
func (f *Frame) ResetFrame(cfg Config, lists int) error {
	total := cfg.Slots + cfg.Reserve
	if cfg.Policy == cache.LRU {
		if f.lru == nil {
			f.lru = &cache.LRUPolicy{}
		}
		f.lru.ResetLists(total, lists)
		f.policy = f.lru
	} else {
		p, err := cache.NewPolicy(cfg.Policy, total, cfg.PolicySeed)
		if err != nil {
			return err
		}
		f.policy, f.lru = p, nil
	}
	if f.evictableFn == nil {
		f.evictableFn = func(slot int) bool { return f.Evictable(int32(slot)) }
	}
	f.cfg = cfg
	// Empty the Hit-Map by clearing the old residents' entries, O(slots)
	// rather than O(rows): the whole array is then zero, and it is
	// resized over that zeroed memory.
	for i := range f.slots {
		if k := f.slots[i].key; k >= 0 {
			f.hit[k] = 0
		}
	}
	f.hit, f.resident = f.hit[:0], 0
	f.GrowRows(cfg.Rows)
	f.slots = resized(f.slots, total)
	for i := range f.slots {
		f.slots[i] = slotMeta{key: -1}
	}
	// hintStamp is sized lazily on the first hinted Plan: engines
	// without deep look-ahead never pay for it.
	f.hintStamp = f.hintStamp[:0]
	f.hintRelaxed = false
	f.pinValid = 1
	if cfg.FutureWindow > 1 && cfg.PastWindow >= cfg.FutureWindow {
		f.pinValid = int64(cfg.FutureWindow)
	}
	// Start the epoch clock at pinValid so a zeroed pinStamp can never
	// satisfy `stamp > epoch-pinValid`.
	f.pinEpoch = f.pinValid
	f.lastPinnedSeq, f.havePinned = 0, false
	f.freeReserve = resized(f.freeReserve, cfg.Reserve)
	for i := range f.freeReserve {
		f.freeReserve[i] = int32(total - 1 - i)
	}
	f.reserveInUse = 0
	f.stats = Stats{}
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

// Config returns the configuration the frame was last reset for.
func (f *Frame) Config() Config { return f.cfg }

// Capacity returns the nominal slot count (excluding reserve).
func (f *Frame) Capacity() int { return f.cfg.Slots }

// TotalSlots returns nominal + reserve capacity.
func (f *Frame) TotalSlots() int { return f.cfg.Slots + f.cfg.Reserve }

// GrowRows extends the Hit-Map to cover sparse IDs [0, rows), so no
// insert below rows reallocates it. It never shrinks the map.
func (f *Frame) GrowRows(rows int64) {
	if n := int(rows); n > len(f.hit) {
		f.hit = slices.Grow(f.hit, n-len(f.hit))[:n]
	}
}

// CheckID returns an error unless id is a row of the table: non-negative
// and, when the configuration names the row count, below it. The miss
// loop and Prewarm reject an ID out of range; a lookup of one misses.
func (f *Frame) CheckID(id int64) error {
	if id >= 0 && (f.cfg.Rows == 0 || id < f.cfg.Rows) {
		return nil
	}
	return f.idError(id)
}

// idError describes an ID CheckID rejects.
func (f *Frame) idError(id int64) error {
	if f.cfg.Rows > 0 {
		return fmt.Errorf("sparse ID %d outside the table's rows [0, %d)", id, f.cfg.Rows)
	}
	return fmt.Errorf("negative sparse ID %d", id)
}

// lookup returns id's slot, reporting whether it is resident.
func (f *Frame) lookup(id int64) (int32, bool) {
	if uint64(id) >= uint64(len(f.hit)) {
		return 0, false
	}
	s := f.hit[id]
	return s - 1, s != 0
}

// Len returns the number of resident rows.
func (f *Frame) Len() int { return f.resident }

// Contains reports whether sparse ID id has a slot.
func (f *Frame) Contains(id int64) bool {
	_, ok := f.lookup(id)
	return ok
}

// ForEach visits every resident (sparse ID, slot) pair in slot order;
// engines use it to flush dirty cached rows back to the CPU tables at
// the end of training.
func (f *Frame) ForEach(fn func(id int64, slot int32)) {
	for s := range f.slots {
		if k := f.slots[s].key; k >= 0 {
			fn(k, int32(s))
		}
	}
}

// LRU returns the frame's recency lists, or nil under another policy.
func (f *Frame) LRU() *cache.LRUPolicy { return f.lru }

// Stats returns accumulated counters.
func (f *Frame) Stats() Stats { return f.stats }

// InFlight returns the number of batches currently holding slots.
func (f *Frame) InFlight() int { return int(f.stats.Planned - f.stats.Released) }

// Held reports whether a slot is currently protected by any in-flight
// batch (the hold-mask "!= 0" predicate); exported for invariant tests.
func (f *Frame) Held(slot int32) bool { return f.slots[slot].holds != 0 }

// Holds returns the number of in-flight batches holding slot; exported
// for invariant tests.
func (f *Frame) Holds(slot int32) int32 { return f.slots[slot].holds }

// Key returns the sparse ID cached in slot, or -1. Exported for tests.
func (f *Frame) Key(slot int32) int64 { return f.slots[slot].key }

// PinnedAfter reports whether slot's look-ahead pin still protects it k
// Plans from now (k = 0: the Plan in progress).
func (f *Frame) PinnedAfter(slot int32, k int64) bool {
	return f.slots[slot].pinStamp > f.pinEpoch+k-f.pinValid
}

// Evictable is the victim predicate: a slot is fair game when nothing
// holds or pins it, it is occupied, and (unless the search has relaxed)
// deep look-ahead has not hinted it for reuse.
func (f *Frame) Evictable(slot int32) bool {
	m := &f.slots[slot]
	if m.holds != 0 || m.key < 0 || f.PinnedAfter(slot, 0) {
		return false
	}
	return f.hintRelaxed || f.hintStamp[slot] != f.pinEpoch
}

// RelaxHints lets the current Plan's victim search fall back to hinted
// slots, reporting whether it was still strict (the caller then sweeps
// once more). Evicting hinted rows is safe, just suboptimal.
func (f *Frame) RelaxHints() bool {
	if f.hintRelaxed {
		return false
	}
	f.hintRelaxed = true
	return true
}

// Pin stamps slot as pinned for the current Plan epoch.
func (f *Frame) Pin(slot int32) { f.slots[slot].pinStamp = f.pinEpoch }

// Hint stamps slot as hinted for reuse by deep look-ahead.
func (f *Frame) Hint(slot int32) { f.hintStamp[slot] = f.pinEpoch }

// Hold registers one more in-flight batch referencing slot.
func (f *Frame) Hold(slot int32) { f.slots[slot].holds++ }

// PinStart returns how many of the n future batches of Plan seq an
// earlier Plan's stamps still pin, so the Plan probes only future[start:].
//
// With multi-epoch stamps (pinValid > 1) only batches newly entering the
// window are probed; earlier entrants' stamps are still valid, and rows
// they cached after their stamping were filled by in-window batches
// whose holds outlast the future window.
func (f *Frame) PinStart(seq, n int) int {
	if f.pinValid <= 1 || !f.havePinned {
		return 0
	}
	return min(max(f.lastPinnedSeq-seq, 0), n)
}

// BeginPlan opens Plan seq over the distinct IDs uniq: it checks the
// future window, advances the pin epoch, arms the hint stamps, and pops
// a pooled PlanResult with uniq copied in and its slots sized for the pad
// passes, which then pin the cached rows of future[start:] and hint
// those of hints. Per-batch buffers regrow on append's amortized
// schedule, so the warm Plan stops allocating once the batch sizes have
// been sampled.
//
// Pinning the next FutureWindow batches' cached rows keeps their
// [Collect] from racing this batch's [Insert] write-back (RAW-4). The
// *current* batch's rows need no pin pass: every hit registers a hold
// before victim selection starts, so "an early miss evicting a row a
// later occurrence of this same batch still needs" is already impossible.
// Together these are the paper's "three past, one current, and two
// future" superset.
func (f *Frame) BeginPlan(seq int, uniq []int64, future, hints [][]int64) (res *PlanResult, start int, err error) {
	if got := len(future); got > f.cfg.FutureWindow {
		return nil, 0, fmt.Errorf("core: plan %d: %d future batches exceeds future window %d", seq, got, f.cfg.FutureWindow)
	}
	f.pinEpoch++
	start = f.PinStart(seq, len(future))
	if n := seq + len(future); len(future) > 0 && (!f.havePinned || n > f.lastPinnedSeq) {
		f.lastPinnedSeq = n
		f.havePinned = true
	}
	if len(hints) > 0 && len(f.hintStamp) == 0 {
		f.hintStamp = resized(f.hintStamp, f.TotalSlots())
		clear(f.hintStamp)
	}
	f.hintRelaxed = len(hints) == 0
	if n := len(f.planPool); n > 0 {
		res = f.planPool[n-1]
		f.planPool[n-1] = nil
		f.planPool = f.planPool[:n-1]
	} else {
		res = &PlanResult{slotOf: intmap.New(0)}
	}
	res.Seq = seq
	res.UniqueIDs = append(res.UniqueIDs, uniq...)
	res.Slots = slices.Grow(res.Slots, len(uniq))[:len(uniq)]
	return res, start, nil
}

// TakeReserve is the last resort of a miss's allocation, after the free
// primary slots and every evictable victim: it draws a reserve slot for
// res, failing when the reserve is exhausted too.
func (f *Frame) TakeReserve(res *PlanResult) (int32, error) {
	n := len(f.freeReserve)
	if n == 0 {
		return 0, fmt.Errorf("core: plan %d: scratchpad exhausted: %d slots + %d reserve all protected (in-flight %d batches)",
			res.Seq, f.cfg.Slots, f.cfg.Reserve, f.InFlight())
	}
	slot := f.freeReserve[n-1]
	f.freeReserve = f.freeReserve[:n-1]
	f.reserveInUse++
	f.stats.ReservePeak = max(f.stats.ReservePeak, f.reserveInUse)
	res.ReserveAllocs++
	return slot, nil
}

// ReturnReserve gives an emptied reserve slot back to the reserve budget.
func (f *Frame) ReturnReserve(slot int32) {
	f.freeReserve = append(f.freeReserve, slot)
	f.reserveInUse--
}

// EndPlan folds a finished Plan into the statistics.
func (f *Frame) EndPlan(res *PlanResult) {
	f.stats.Planned++
	f.stats.Queries += int64(res.OccHits + res.OccMisses)
	f.stats.Hits += int64(res.OccHits)
	f.stats.Misses += int64(res.OccMisses)
	f.stats.UniqueQueries += int64(len(res.UniqueIDs))
	f.stats.UniqueMisses += int64(len(res.Fills))
	f.stats.UniqueHits += int64(len(res.UniqueIDs) - len(res.Fills))
	f.stats.Fills += int64(len(res.Fills))
	f.stats.Evictions += int64(len(res.Evictions))
	f.stats.ReserveAllocs += int64(res.ReserveAllocs)
}

// Recycle returns a retired batch's plan buffers to the free list. Call
// it once the plan can no longer be read (the batch has left [Train]);
// passing nil is a no-op. Recycling is what makes the steady-state Plan
// path allocation-free.
func (f *Frame) Recycle(res *PlanResult) {
	if res == nil {
		return
	}
	res.reset()
	f.planPool = append(f.planPool, res)
}

// Dedup deduplicates a batch's occurrence stream into reusable scratch:
// its distinct IDs in first-appearance order and their multiplicities,
// valid until the next call. It backs the occurrence-list entry points
// (PlanWithHints); callers that already hold the batch's distinct IDs
// and counts (the dataset records them once per batch) skip the pass.
func (f *Frame) Dedup(ids []int64) ([]int64, []int32) {
	if f.dedup == nil {
		f.dedup = intmap.New(len(ids))
	}
	uniq, cnt := f.uniqScratch[:0], f.cntScratch[:0]
	if cap(uniq) < len(ids) {
		uniq = make([]int64, 0, len(ids))
		cnt = make([]int32, 0, len(ids))
	}
	f.uniqScratch, f.cntScratch = intmap.Dedup(ids, f.dedup, uniq, cnt)
	return f.uniqScratch, f.cntScratch
}

// Evict removes slot's row, which pad p owns, from the Hit-Map and
// empties the slot, returning the displaced sparse ID.
func (f *Frame) Evict(p *Pad, slot int32) int64 {
	old := f.slots[slot].key
	f.hit[old] = 0
	f.slots[slot].key = -1
	f.resident--
	p.Resident--
	return old
}

// ReleaseBatch drops the holds of r's oldest in-flight batch, which must
// be seq (releases are FIFO), and returns its hold set to r's pool.
// Planners with several rings release each one and then call EndRelease
// once.
func (f *Frame) ReleaseBatch(r *BatchRing, seq int) error {
	if r.Len() == 0 {
		return fmt.Errorf("core: release %d: no in-flight batches", seq)
	}
	if got := r.Front().Seq; got != seq {
		return fmt.Errorf("core: release %d: oldest in-flight batch is %d (releases must be FIFO)", seq, got)
	}
	hb := r.pop()
	for _, slot := range hb.Slots {
		if f.slots[slot].holds <= 0 {
			return fmt.Errorf("core: release %d: slot %d hold underflow", seq, slot)
		}
		f.slots[slot].holds--
	}
	r.recycle(hb.Slots)
	return nil
}

// EndRelease counts one finished Release.
func (f *Frame) EndRelease() { f.stats.Released++ }
