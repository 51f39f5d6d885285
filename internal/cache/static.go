package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/embed"
)

// Static models the software-managed GPU embedding cache of Yin et al.
// that the paper evaluates as its stronger baseline (Figure 4b): the top-N
// most-frequently-accessed rows are pinned in GPU memory for the entire
// training run and are never evicted. Hit rows are read and updated in GPU
// memory; missed rows are read and updated in the CPU table.
//
// Because the synthetic distributions in internal/trace are sorted
// hottest-first, "top-N most frequent" is exactly rows [0, N).
type Static struct {
	topN int64
	// gpu holds the cached copies of rows [0, topN); nil in metadata
	// mode (hit/miss accounting only).
	gpu *embed.Table
	// cpu is the backing CPU embedding table; nil in metadata mode.
	cpu *embed.Table

	stats StaticStats
}

// StaticStats counts cache events for the timing model.
type StaticStats struct {
	Queries int64
	Hits    int64
	Misses  int64
}

// NewStatic builds a static cache holding the top topN rows of cpu. In
// functional mode the hot rows are copied into a GPU-resident table; pass a
// nil cpu table for metadata-only simulation.
func NewStatic(cpu *embed.Table, rows int64, dim int, topN int64) (*Static, error) {
	if topN < 0 || topN > rows {
		return nil, fmt.Errorf("cache: static: topN %d out of [0,%d]", topN, rows)
	}
	s := &Static{topN: topN, cpu: cpu}
	if cpu != nil && topN > 0 {
		if cpu.Rows() != rows || cpu.Dim() != dim {
			return nil, fmt.Errorf("cache: static: cpu table %dx%d, want %dx%d", cpu.Rows(), cpu.Dim(), rows, dim)
		}
		// The init values are immediately overwritten by the copies
		// from the CPU table, so the rng seed is irrelevant.
		gpu, err := embed.NewTable(topN, dim, rand.New(rand.NewSource(0)))
		if err != nil {
			return nil, err
		}
		for id := int64(0); id < topN; id++ {
			copy(gpu.Row(id), cpu.Row(id))
		}
		s.gpu = gpu
	}
	return s, nil
}

// Hit reports whether sparse ID id is serviced by the GPU cache.
func (s *Static) Hit(id int64) bool { return id < s.topN }

// RecordQuery folds a batch's hit/miss classification (through Hit, the
// "Evaluate hit IDs & missed IDs" stage of Figure 4b) into the
// statistics; callers that already hold the batch's distinct IDs and
// counts classify without rescanning the occurrence stream.
func (s *Static) RecordQuery(hits, misses int) {
	s.stats.Queries += int64(hits + misses)
	s.stats.Hits += int64(hits)
	s.stats.Misses += int64(misses)
}

// Stats returns accumulated counters.
func (s *Static) Stats() StaticStats { return s.stats }

// Dim implements embed.RowStore in functional mode: reads and updates are
// routed to the GPU copy for hot rows and to the CPU table otherwise —
// exactly the hit/miss split execution of Figure 4b.
func (s *Static) Dim() int { return s.cpu.Dim() }

// Row implements embed.RowStore.
func (s *Static) Row(id int64) []float32 {
	if s.gpu != nil && s.Hit(id) {
		return s.gpu.Row(id)
	}
	return s.cpu.Row(id)
}

// Flush writes the (dirty) GPU-cached rows back into the CPU table so the
// full model can be checkpointed or compared against another engine.
func (s *Static) Flush() {
	if s.gpu == nil {
		return
	}
	for id := int64(0); id < s.topN; id++ {
		copy(s.cpu.Row(id), s.gpu.Row(id))
	}
}
