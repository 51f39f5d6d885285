package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/par"
	"repro/internal/trace"
)

// StaticCache is the hybrid CPU-GPU system augmented with the
// software-managed static GPU embedding cache of Figure 4b (after Yin et
// al.): the top-N hottest rows live in GPU memory for the whole run. Hit
// IDs train at GPU memory speed; missed IDs still pay the full CPU-side
// gather / duplicate / coalesce / scatter cost, and — critically — those
// misses sit on the training critical path, which is the limitation
// ScratchPipe removes.
type StaticCache struct {
	env    *Env
	cost   costModel
	caches []*cache.Static
	// stateCaches shadow caches for per-row optimizer state (nil for
	// stateless optimizers): hot-row state lives in GPU memory too.
	stateCaches []*cache.Static
	// rows/state view caches/stateCaches as trainStep's stores: each
	// routes hot rows to the GPU copy and cold rows to the CPU table, so
	// the step runs the identical float program as the baseline.
	rows, state []embed.RowStore
	// tabs is per-table scratch for the parallel fan-out; reduced
	// serially in table order each iteration.
	tabs []staticTable
	// cur is the batch of the iteration in progress, read by the
	// per-table fan-out (iterations run one at a time).
	cur *trace.Batch
	// Each table's hit/miss classification splits the distinct-ID list
	// into shards ranges classified concurrently (one range at S=1; the
	// static cache's hit predicate is a pure function of the ID, so no
	// hash routing is needed), with per-range counters reduced serially
	// — identical totals at any shard count. shardPool carries the
	// per-table share of the Workers budget, like the dynamic engines'
	// shard fan-out (nil, so serial, at S=1).
	shards    int
	shardPool *par.Pool
}

// staticTable collects one table's contribution to an iteration. The
// fan-out bodies are its methods and StaticCache's, run through par.Each
// with the state as the argument, so a warm iteration allocates nothing.
type staticTable struct {
	s                   *StaticCache
	t                   int
	cpuFwd, cpuBwd, gpu float64
	hitOcc, missOcc     int
	chunks              []staticChunk
}

// staticChunk collects one shard range's classification counts.
type staticChunk struct {
	hitOcc, missOcc, uniqHit, uniqMiss int
}

// NewStaticCache builds the engine with a per-table static cache sized to
// the top topFrac fraction of rows (the paper sweeps 2-10%).
func NewStaticCache(env *Env, topFrac float64) (*StaticCache, error) {
	if topFrac < 0 || topFrac > 1 {
		return nil, fmt.Errorf("engine: static: topFrac %g out of [0,1]", topFrac)
	}
	cfg := env.Cfg.Model
	topN := int64(topFrac * float64(cfg.RowsPerTable))
	s := &StaticCache{env: env, cost: costModel{env: env}}
	for t := 0; t < cfg.NumTables; t++ {
		var cpu *embed.Table
		if env.Cfg.Functional {
			cpu = env.Tables[t]
		}
		c, err := cache.NewStatic(cpu, cfg.RowsPerTable, cfg.EmbeddingDim, topN)
		if err != nil {
			return nil, err
		}
		s.caches = append(s.caches, c)
		if env.StateDim > 0 {
			var cpuState *embed.Table
			if env.Cfg.Functional {
				cpuState = env.StateTables[t]
			}
			sc, err := cache.NewStatic(cpuState, cfg.RowsPerTable, env.StateDim, topN)
			if err != nil {
				return nil, err
			}
			s.stateCaches = append(s.stateCaches, sc)
		}
	}
	if env.Cfg.Functional {
		s.rows, s.state = rowStores(s.caches), rowStores(s.stateCaches)
	}
	s.shards = max(env.Cfg.Shards, 1)
	if s.shards > 1 {
		s.shardPool = par.New((env.Pool.Workers() + cfg.NumTables - 1) / cfg.NumTables)
	}
	s.tabs = make([]staticTable, cfg.NumTables)
	chunks := make([]staticChunk, cfg.NumTables*s.shards)
	for t := range s.tabs {
		s.tabs[t] = staticTable{s: s, t: t, chunks: chunks[t*s.shards : (t+1)*s.shards]}
	}
	return s, nil
}

// Name implements Engine.
func (s *StaticCache) Name() string { return "static" }

// Run implements Engine.
func (s *StaticCache) Run(n int) (*Report, error) {
	if err := validateIters(n); err != nil {
		return nil, err
	}
	cfg := s.env.Cfg.Model
	rep := &Report{Engine: s.Name(), Iters: n}
	var lossSum float64
	for it := 0; it < n; it++ {
		b := s.env.Gen.Next()
		// Serial materialization before the per-table fan-out reads
		// the distinct-ID lists concurrently.
		b.EnsureUnique()

		var cpuFwd, cpuBwd, gpu float64
		// Sparse IDs cross PCIe once for hit/miss evaluation
		// (Figure 4b's first red arrow), missed IDs come back.
		totalIDsAll := cfg.NumTables * b.TotalIDs()
		cpuFwd += s.cost.pcie(idBytes(totalIDsAll) + s.cost.denseInputBytes())

		// Per-table fan-out: each table touches only its own cache and
		// its scratch slot; the reduction below runs in table order for
		// deterministic float summation.
		s.cur = b
		_ = par.Each(s.env.Pool, cfg.NumTables, s, (*StaticCache).runTable) // runTable cannot fail
		s.cur = nil
		var missedBack int
		for t := range s.tabs {
			a := &s.tabs[t]
			rep.Hits += int64(a.hitOcc)
			rep.Misses += int64(a.missOcc)
			missedBack += a.missOcc
			gpu += a.gpu
			cpuFwd += a.cpuFwd
			cpuBwd += a.cpuBwd
		}
		cpuFwd += s.cost.pcie(idBytes(missedBack))
		gpu += s.cost.mlpTime()

		rep.CPUEmbFwd += cpuFwd
		rep.CPUEmbBwd += cpuBwd
		rep.GPUTime += gpu
		rep.Wall += cpuFwd + gpu + cpuBwd
		rep.CPUBusy += cpuFwd + cpuBwd
		rep.GPUBusy += gpu

		if s.env.Cfg.Functional {
			lossSum += float64(s.env.trainStep(b, s.rows, s.state))
		}
		s.env.Gen.Recycle(b)
	}
	finalizeAverages(rep, n, lossSum)
	return rep, nil
}

// runTable is Run's per-table body: classify the batch's distinct IDs
// against table t's cache and price the table's forward and backward
// work.
func (s *StaticCache) runTable(t int) error {
	cfg := s.env.Cfg.Model
	a := &s.tabs[t]
	_ = par.Each(s.shardPool, s.shards, a, (*staticTable).classifyChunk) // classifyChunk cannot fail
	var hitOcc, missOcc, uniqHit, uniqMiss int
	for _, ch := range a.chunks {
		hitOcc += ch.hitOcc
		missOcc += ch.missOcc
		uniqHit += ch.uniqHit
		uniqMiss += ch.uniqMiss
	}
	s.caches[t].RecordQuery(hitOcc, missOcc)

	// Forward: GPU gathers hits; CPU gathers misses and partially
	// reduces them; partial sums cross PCIe.
	a.gpu = s.cost.gatherGPU(hitOcc) +
		s.cost.reduceGPU(hitOcc+cfg.BatchSize, cfg.BatchSize)
	a.cpuFwd = s.cost.gatherCPU(missOcc) +
		s.cost.reduceCPU(missOcc, cfg.BatchSize) +
		s.cost.pcie(s.cost.pooledBytes())

	// Backward: the pooled gradient crosses to the CPU for the missed
	// IDs; both sides duplicate/coalesce and scatter their share.
	a.gpu += s.cost.dupCoalesceGPU(cfg.BatchSize, hitOcc, uniqHit) +
		s.cost.scatterUpdateGPU(uniqHit) +
		s.cost.stateUpdateGPU(uniqHit)
	a.cpuBwd = s.cost.pcie(s.cost.pooledBytes()) +
		s.cost.dupCoalesceCPU(cfg.BatchSize, missOcc, uniqMiss) +
		s.cost.scatterUpdateCPU(uniqMiss) +
		s.cost.stateUpdateCPU(uniqMiss)
	a.hitOcc, a.missOcc = hitOcc, missOcc
	return nil
}

// classifyChunk counts the hits and misses of shard range c of the
// table's distinct IDs.
func (a *staticTable) classifyChunk(c int) error {
	uniq, cnt := a.s.cur.UniqueWithCounts(a.t)
	lo := c * len(uniq) / a.s.shards
	hi := (c + 1) * len(uniq) / a.s.shards
	hot := a.s.caches[a.t]
	var ch staticChunk
	for i := lo; i < hi; i++ {
		if hot.Hit(uniq[i]) {
			ch.uniqHit++
			ch.hitOcc += int(cnt[i])
		} else {
			ch.uniqMiss++
			ch.missOcc += int(cnt[i])
		}
	}
	a.chunks[c] = ch
	return nil
}

// Flush implements FlushTables: write dirty hot rows (and their optimizer
// state) back to CPU tables.
func (s *StaticCache) Flush() error {
	for _, c := range s.caches {
		c.Flush()
	}
	for _, c := range s.stateCaches {
		c.Flush()
	}
	return nil
}
