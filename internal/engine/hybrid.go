package engine

import "repro/internal/embed"

// Hybrid is the baseline hybrid CPU-GPU system of Figure 4a: the CPU
// memory stores the embedding tables and executes every embedding-layer
// primitive (gather, reduce, gradient duplicate/coalesce, scatter update)
// while the GPU trains the MLPs. No embedding caching at all — every
// lookup pays CPU DRAM latency, which is the bottleneck the paper
// characterizes in Figure 5.
type Hybrid struct {
	env  *Env
	cost costModel
	// rows/state are the CPU tables trainStep updates in place.
	rows, state []embed.RowStore
}

// NewHybrid builds the baseline engine over env.
func NewHybrid(env *Env) *Hybrid {
	return &Hybrid{env: env, cost: costModel{env: env},
		rows: rowStores(env.Tables), state: rowStores(env.StateTables)}
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
			lossSum += float64(h.env.trainStep(b, h.rows, h.state))
		}
		h.env.Gen.Recycle(b)
	}
	finalizeAverages(rep, n, lossSum)
	return rep, nil
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
