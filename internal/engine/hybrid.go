package engine

import (
	"repro/internal/embed"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Hybrid is the baseline hybrid CPU-GPU system of Figure 4a: the CPU
// memory stores the embedding tables and executes every embedding-layer
// primitive (gather, reduce, gradient duplicate/coalesce, scatter update)
// while the GPU trains the MLPs. No embedding caching at all — every
// lookup pays CPU DRAM latency, which is the bottleneck the paper
// characterizes in Figure 5.
type Hybrid struct {
	env  *Env
	cost costModel
}

// NewHybrid builds the baseline engine over env.
func NewHybrid(env *Env) *Hybrid {
	return &Hybrid{env: env, cost: costModel{env: env}}
}

// Name implements Engine.
func (h *Hybrid) Name() string { return "hybrid" }

// Run implements Engine.
func (h *Hybrid) Run(n int) (*Report, error) {
	if err := validateIters(n); err != nil {
		return nil, err
	}
	cfg := h.env.Cfg.Model
	rep := &Report{Engine: h.Name(), Iters: n}
	var lossSum float64
	for it := 0; it < n; it++ {
		b := h.env.Gen.Next()
		ids := b.TotalIDs()

		// --- timing ---
		var fwd, bwd float64
		for t := 0; t < cfg.NumTables; t++ {
			uniq := len(b.UniqueIDs(t))
			fwd += h.cost.gatherCPU(ids)
			fwd += h.cost.reduceCPU(ids, cfg.BatchSize)
			bwd += h.cost.dupCoalesceCPU(cfg.BatchSize, ids, uniq)
			bwd += h.cost.scatterUpdateCPU(uniq)
			// Stateful optimizers read-modify-write their per-row
			// accumulators alongside the embedding rows.
			bwd += h.cost.stateUpdateCPU(uniq)
		}
		// Ship pooled outputs + dense inputs up, pooled gradients down.
		upBytes := float64(cfg.NumTables)*h.cost.pooledBytes() + h.cost.denseInputBytes()
		fwd += h.cost.pcie(upBytes)
		bwd += h.cost.pcie(float64(cfg.NumTables) * h.cost.pooledBytes())
		gpu := h.cost.mlpTime()

		rep.CPUEmbFwd += fwd
		rep.CPUEmbBwd += bwd
		rep.GPUTime += gpu
		rep.Wall += fwd + gpu + bwd
		rep.CPUBusy += fwd + bwd
		rep.GPUBusy += gpu
		rep.Misses += int64(cfg.NumTables * ids)

		// --- functional training ---
		if h.env.Cfg.Functional {
			lossSum += float64(h.trainStep(b))
		}
		h.env.Gen.Recycle(b)
	}
	finalizeAverages(rep, n, lossSum)
	return rep, nil
}

// trainStep executes one real training iteration directly against the CPU
// tables using the canonical embedding primitives.
func (h *Hybrid) trainStep(b *trace.Batch) float32 {
	cfg := h.env.Cfg.Model
	pooled := make([]*tensor.Matrix, cfg.NumTables)
	h.env.Pool.ForEach(cfg.NumTables, func(t int) {
		pooled[t] = embed.ForwardPooled(h.env.Tables[t], b.Tables[t], b.BatchSize, b.Lookups)
	})
	res := h.env.Model.TrainStep(h.env.DenseMatrix(b), pooled, b.Labels)
	h.env.Pool.ForEach(cfg.NumTables, func(t int) {
		g := embed.DuplicateCoalesce(b.Tables[t], res.PooledGrads[t], b.Lookups)
		h.env.Opt.Apply(h.env.Tables[t], h.env.stateTable(t), g)
	})
	return res.Loss
}

// Flush implements FlushTables (no GPU-resident state).
func (h *Hybrid) Flush() error { return nil }

// finalizeAverages converts a Report's accumulated sums into per-iteration
// averages.
func finalizeAverages(rep *Report, n int, lossSum float64) {
	fn := float64(n)
	rep.IterTime = rep.Wall / fn
	rep.CPUEmbFwd /= fn
	rep.CPUEmbBwd /= fn
	rep.GPUTime /= fn
	rep.CPUBusy /= fn
	rep.GPUBusy /= fn
	rep.CoordTime /= fn
	rep.CoordWallTime /= fn
	for s := range rep.StageAvg {
		rep.StageAvg[s] /= fn
	}
	rep.AvgLoss = lossSum / fn
	// Fault-free engines are fully available; the dynamic-cache engines
	// recompute this after adding their episodic outage time to Wall.
	rep.Availability = 1
}
