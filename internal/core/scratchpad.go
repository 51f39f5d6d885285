// Package core implements the paper's primary contribution: the
// ScratchPipe GPU scratchpad — an embedding cache that "always hits"
// because the Plan stage looks forward in the training dataset — together
// with the 6-stage software pipeline and the hold-mask hazard discipline of
// §IV (Algorithm 1, Figures 8-11).
//
// The scratchpad here is the control plane only: it maps sparse feature IDs
// to cache slots and decides what to prefetch, evict, and protect. Moving
// the actual embedding vectors (and accounting for the bytes moved) is the
// training engine's job, which lets the same control logic drive both the
// functional float32 simulation and the paper-scale metadata simulation.
//
// The Plan rule lives once, in Frame (the table's slot discipline) and
// Pad (one sub-scratchpad's free slots, hold ring and recency list). The
// planner that runs them is internal/shard's Manager, one Pad per shard,
// with one miss loop and one Prewarm at every shard count.
package core

import (
	"fmt"

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
	// Rows is the table's sparse-ID space [0, Rows), which sizes the
	// row-indexed Hit-Map once. 0 leaves it unknown: the map then grows
	// with the largest ID inserted, and only negative IDs are rejected.
	Rows int64
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
	if c.Rows < 0 {
		return fmt.Errorf("core: scratchpad: Rows %d < 0", c.Rows)
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
