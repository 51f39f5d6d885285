package trace

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/intmap"
)

// Batch is one training mini-batch's worth of sparse feature IDs: for each
// embedding table, Lookups IDs per sample, flattened sample-major. These
// are the indices the dataset records for embedding gathers (forward) and
// gradient scatters (backward) — the information ScratchPipe's Plan stage
// reads ahead of time.
type Batch struct {
	// Seq is the 0-based position of this batch in the dataset stream.
	Seq int
	// BatchSize is the number of samples.
	BatchSize int
	// Lookups is the number of embedding gathers per sample per table.
	Lookups int
	// Tables[t] holds BatchSize*Lookups row IDs for table t, sample-major:
	// IDs for sample s occupy Tables[t][s*Lookups : (s+1)*Lookups].
	Tables [][]int64
	// Dense holds the continuous features for each sample, sample-major
	// (BatchSize x DenseDim), used by the bottom MLP. May be nil when the
	// consumer only needs sparse IDs (metadata-mode simulation).
	Dense []float32
	// DenseDim is the number of continuous features per sample.
	DenseDim int
	// Labels holds the click/no-click label per sample in {0,1}. May be
	// nil in metadata mode.
	Labels []float32
	// Uniq[t]/Cnt[t] are table t's distinct IDs in first-appearance
	// order with their occurrence counts, deduplicated once at
	// generation time so every consumer (Plan classification, pin
	// passes, cache statistics) works on the distinct working set
	// instead of re-deduplicating the occurrence stream. Nil for
	// batches from sources that do not precompute them; UniqueIDs
	// builds and memoizes on demand.
	Uniq [][]int64
	Cnt  [][]int32
}

// NumTables returns the number of embedding tables the batch addresses.
func (b *Batch) NumTables() int { return len(b.Tables) }

// TotalIDs returns the number of sparse IDs per table (BatchSize*Lookups).
func (b *Batch) TotalIDs() int { return b.BatchSize * b.Lookups }

// UniqueIDs returns the deduplicated IDs of table t in first-appearance
// order. The order is deterministic so every engine coalesces gradients
// identically (required for the bitwise-equivalence tests). The result
// is memoized on the batch; callers must not mutate it.
func (b *Batch) UniqueIDs(t int) []int64 {
	u, _ := b.UniqueWithCounts(t)
	return u
}

// UniqueWithCounts returns table t's distinct IDs (first-appearance
// order) alongside each ID's occurrence count, computing and memoizing
// them if the batch's source did not. Not safe for concurrent first
// computation on the same table; engines prepare batches serially before
// fanning per-table work out.
func (b *Batch) UniqueWithCounts(t int) ([]int64, []int32) {
	if b.Uniq == nil {
		b.Uniq = make([][]int64, len(b.Tables))
		b.Cnt = make([][]int32, len(b.Tables))
	}
	if b.Uniq[t] == nil {
		b.Uniq[t], b.Cnt[t] = intmap.Dedup(b.Tables[t], intmap.New(len(b.Tables[t])), nil, nil)
	}
	return b.Uniq[t], b.Cnt[t]
}

// EnsureUnique precomputes every table's distinct-ID lists so later
// concurrent per-table UniqueWithCounts calls are read-only. Engines
// call it once, from a single goroutine, before fanning per-table work
// out (for generator batches the lists already exist and this is a
// cheap memo check).
func (b *Batch) EnsureUnique() {
	for t := range b.Tables {
		b.UniqueWithCounts(t)
	}
}

// GeneratorConfig configures a synthetic trace generator.
type GeneratorConfig struct {
	// NumTables is the number of embedding tables (paper default: 8).
	NumTables int
	// RowsPerTable is the number of rows in each table (default: 10M).
	RowsPerTable int64
	// Lookups is the number of gathers per table per sample (default: 20).
	Lookups int
	// BatchSize is the mini-batch size (default: 2048).
	BatchSize int
	// DenseDim is the number of continuous features (default: 13, the
	// Criteo/MLPerf-DLRM count). Zero disables dense generation.
	DenseDim int
	// Class selects the locality class used for every table unless
	// Dists overrides it.
	Class Class
	// Dists optionally overrides the per-table distribution; when set it
	// must have NumTables entries.
	Dists []Distribution
	// Seed seeds the deterministic PRNG stream.
	Seed int64
	// MetadataOnly skips dense feature and label generation; batches
	// carry only sparse IDs. Used for paper-scale timing simulation.
	MetadataOnly bool
}

// Validate reports a descriptive error for an unusable configuration.
func (c GeneratorConfig) Validate() error {
	if c.NumTables <= 0 {
		return fmt.Errorf("trace: generator: NumTables %d <= 0", c.NumTables)
	}
	if c.RowsPerTable <= 0 {
		return fmt.Errorf("trace: generator: RowsPerTable %d <= 0", c.RowsPerTable)
	}
	if c.Lookups <= 0 {
		return fmt.Errorf("trace: generator: Lookups %d <= 0", c.Lookups)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("trace: generator: BatchSize %d <= 0", c.BatchSize)
	}
	if c.DenseDim < 0 {
		return fmt.Errorf("trace: generator: DenseDim %d < 0", c.DenseDim)
	}
	if c.Dists != nil && len(c.Dists) != c.NumTables {
		return fmt.Errorf("trace: generator: %d distributions for %d tables", len(c.Dists), c.NumTables)
	}
	return nil
}

// Generator produces an endless, deterministic stream of mini-batches. It
// implements Source, the interface ScratchPipe's dataset loader consumes.
//
// Sparse IDs and dense features draw from two independent PRNG streams so
// that the ID sequence — which all cache behaviour and therefore all
// simulated timing depends on — is identical whether or not dense features
// are generated (metadata vs functional mode).
//
// Fork hands out replaying copies of the stream: every fork starts at
// batch 0 and reads one recording, shared by all forks of the generator
// and generated on demand, so N consumers of the same stream pay for
// generating it once.
type Generator struct {
	cfg      GeneratorConfig
	dists    []Distribution
	rngIDs   *rand.Rand
	rngDense *rand.Rand
	seq      int
	// free recycles retired batches (engines opt in via Recycle):
	// batches are the steady-state loop's largest remaining allocation.
	free []*Batch
	// seen is the dedup scratch reused across batches (O(1) clear).
	seen *intmap.Map
	// rec is the recording forks replay: created by the first Fork of
	// a live generator and shared with every fork (nil on a generator
	// that was never forked, which records nothing). replay marks a
	// fork, whose Next reads rec instead of generating.
	rec    *recording
	replay bool
}

// recording is the shared, append-only batch stream behind forked
// generators. src generates it in stream order on demand; the recorded
// batches are immutable, so forks on different goroutines may read them
// concurrently.
type recording struct {
	mu      sync.Mutex
	src     *Generator
	batches []*Batch
}

// at returns batch seq of the stream, generating up to it if needed.
func (r *recording) at(seq int) *Batch {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.batches) <= seq {
		r.batches = append(r.batches, r.src.Next())
	}
	return r.batches[seq]
}

// NewGenerator builds a generator from cfg, materializing the per-table
// distributions for the configured class when none are supplied.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dists := cfg.Dists
	if dists == nil {
		dists = make([]Distribution, cfg.NumTables)
		for t := range dists {
			d, err := NewClassDistribution(cfg.Class, cfg.RowsPerTable)
			if err != nil {
				return nil, err
			}
			dists[t] = d
		}
	}
	for t, d := range dists {
		if d.Rows() != cfg.RowsPerTable {
			return nil, fmt.Errorf("trace: generator: table %d distribution has %d rows, config says %d", t, d.Rows(), cfg.RowsPerTable)
		}
	}
	return newGenerator(cfg, dists), nil
}

// newGenerator starts cfg's stream from batch 0 over validated dists.
func newGenerator(cfg GeneratorConfig, dists []Distribution) *Generator {
	return &Generator{
		cfg:      cfg,
		dists:    dists,
		rngIDs:   rand.New(rand.NewSource(cfg.Seed)),
		rngDense: rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		seen:     intmap.New(cfg.BatchSize * cfg.Lookups),
	}
}

// Fork returns a generator that replays g's stream from batch 0,
// whatever g has already produced: its batches are reflect.DeepEqual to
// a fresh NewGenerator's with the same configuration. Every fork of g
// (and every fork of a fork) reads one shared recording, generated on
// demand, so the stream is generated once however many forks replay it.
// Recorded batches are shared and read-only: a fork's Recycle does
// nothing, and the recording lives as long as g or any fork does.
func (g *Generator) Fork() *Generator {
	if g.rec == nil {
		g.rec = &recording{src: newGenerator(g.cfg, g.dists)}
	}
	return &Generator{cfg: g.cfg, dists: g.dists, rec: g.rec, replay: true}
}

// Dists returns the per-table access distributions (shared, read-only).
func (g *Generator) Dists() []Distribution {
	out := make([]Distribution, len(g.dists))
	copy(out, g.dists)
	return out
}

// Next produces the next mini-batch in the stream.
func (g *Generator) Next() *Batch {
	if g.replay {
		b := g.rec.at(g.seq)
		g.seq++
		return b
	}
	var b *Batch
	if n := len(g.free); n > 0 {
		b = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		b.Seq = g.seq
	} else {
		b = &Batch{
			Seq:       g.seq,
			BatchSize: g.cfg.BatchSize,
			Lookups:   g.cfg.Lookups,
			Tables:    make([][]int64, g.cfg.NumTables),
			Uniq:      make([][]int64, g.cfg.NumTables),
			Cnt:       make([][]int32, g.cfg.NumTables),
			DenseDim:  g.cfg.DenseDim,
		}
		n := b.TotalIDs()
		// One flat backing array for all tables' IDs: a batch costs
		// two allocations instead of NumTables+1.
		flat := make([]int64, n*g.cfg.NumTables)
		for t := 0; t < g.cfg.NumTables; t++ {
			b.Tables[t] = flat[t*n : (t+1)*n : (t+1)*n]
			b.Uniq[t] = make([]int64, 0, n)
			b.Cnt[t] = make([]int32, 0, n)
		}
		if !g.cfg.MetadataOnly && g.cfg.DenseDim > 0 {
			b.Dense = make([]float32, g.cfg.BatchSize*g.cfg.DenseDim)
			b.Labels = make([]float32, g.cfg.BatchSize)
		}
	}
	g.seq++
	for t := 0; t < g.cfg.NumTables; t++ {
		ids := b.Tables[t]
		dist := g.dists[t]
		for i := range ids {
			ids[i] = dist.Sample(g.rngIDs)
		}
		b.Uniq[t], b.Cnt[t] = intmap.Dedup(ids, g.seen, b.Uniq[t][:0], b.Cnt[t][:0])
	}
	if !g.cfg.MetadataOnly && g.cfg.DenseDim > 0 {
		for i := range b.Dense {
			b.Dense[i] = float32(g.rngDense.NormFloat64())
		}
		for i := range b.Labels {
			b.Labels[i] = 0
			if g.rngDense.Float64() < 0.5 {
				b.Labels[i] = 1
			}
		}
	}
	return b
}

// Recycle hands a retired batch back for reuse by a future Next. The
// caller must have dropped every reference into the batch (including
// subslices of Tables); engines call it once a batch has fully left
// their pipeline. On a fork it does nothing: the batch belongs to the
// shared recording.
func (g *Generator) Recycle(b *Batch) {
	if b == nil || g.replay {
		return
	}
	g.free = append(g.free, b)
}

// Source is any producer of an ordered mini-batch stream. Both the
// synthetic Generator and the file-backed Reader satisfy it.
type Source interface {
	Next() *Batch
}
