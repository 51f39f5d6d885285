package engine

import (
	"fmt"

	"repro/internal/embed"
)

// MultiGPU models the §VI-F comparison system: NumGPUs GPUs whose pooled
// HBM holds *all* embedding tables (table-wise model parallelism), with the
// MLPs trained data-parallel. Embedding traffic runs at HBM speed on every
// GPU; the cost is an all-to-all of pooled embeddings each direction, a
// gradient allreduce for the MLPs — and an 8x larger AWS bill (Table I).
type MultiGPU struct {
	env  *Env
	cost costModel
	// rows/state are the CPU tables trainStep updates in place: table-wise
	// model parallelism runs each table's gather/reduce/scatter on its
	// owner GPU exactly as hybrid does on the CPU, reordering no float
	// operation.
	rows, state []embed.RowStore
}

// NewMultiGPU builds the model-parallel engine; the GPU count comes from
// the environment's hw.System.
func NewMultiGPU(env *Env) (*MultiGPU, error) {
	cfg := env.Cfg.Model
	g := env.Cfg.System.NumGPUs
	if g < 1 {
		return nil, fmt.Errorf("engine: multigpu: %d GPUs", g)
	}
	// Feasibility check the paper makes implicitly: the pooled HBM of
	// all GPUs must fit the full model (8 x 32 GB > 40 GB).
	hbmBytes := 32e9 * float64(g)
	if cfg.ModelBytes() > hbmBytes {
		return nil, fmt.Errorf("engine: multigpu: model %.1f GB exceeds %d GPUs' pooled HBM (%.1f GB)",
			cfg.ModelBytes()/1e9, g, hbmBytes/1e9)
	}
	return &MultiGPU{env: env, cost: costModel{env: env},
		rows: rowStores(env.Tables), state: rowStores(env.StateTables)}, nil
}

// Name implements Engine.
func (m *MultiGPU) Name() string { return "multigpu" }

// Run implements Engine.
func (m *MultiGPU) Run(n int) (*Report, error) {
	if err := validateIters(n); err != nil {
		return nil, err
	}
	cfg := m.env.Cfg.Model
	sys := m.env.Cfg.System
	g := sys.NumGPUs
	tablesPerGPU := (cfg.NumTables + g - 1) / g
	rep := &Report{Engine: m.Name(), Iters: n}
	var lossSum float64
	for it := 0; it < n; it++ {
		b := m.env.Gen.Next()
		ids := b.TotalIDs()

		// Model-parallel embedding forward: each GPU gathers and
		// reduces its local tables for the full global batch.
		var localFwd, localBwd float64
		for t := 0; t < tablesPerGPU; t++ {
			localFwd += m.cost.gatherGPU(ids)
			localFwd += m.cost.reduceGPU(ids, cfg.BatchSize)
			uniq := len(b.UniqueIDs(t % cfg.NumTables))
			localBwd += m.cost.dupCoalesceGPU(cfg.BatchSize, ids, uniq)
			localBwd += m.cost.scatterUpdateGPU(uniq)
			localBwd += m.cost.stateUpdateGPU(uniq)
		}
		// All-to-all of pooled outputs (forward) and pooled gradients
		// (backward): each GPU ships its tables' pooled rows to the
		// (g-1)/g other owners' data-parallel shards.
		a2aBytes := m.cost.pooledBytes() * float64(tablesPerGPU) * float64(g-1) / float64(g)
		a2a := sys.NVLink.TransferTime(a2aBytes)
		// Data-parallel MLPs on batch/g plus a ring allreduce of the
		// dense gradients.
		flops := mlpFlopsPerIteration(cfg) / float64(g)
		mlp := sys.GPU.MatmulTime(flops, flops/2) + sys.GPU.IterOverhead
		allreduce := sys.NVLink.TransferTime(2 * mlpParamCount(cfg) * 4 * float64(g-1) / float64(g))

		iter := localFwd + a2a + mlp + a2a + localBwd + allreduce
		rep.Wall += iter
		rep.GPUTime += iter
		rep.GPUBusy += iter * float64(g)
		rep.Hits += int64(cfg.NumTables * ids) // all HBM-resident

		if m.env.Cfg.Functional {
			lossSum += float64(m.env.trainStep(b, m.rows, m.state))
		}
		m.env.Gen.Recycle(b)
	}
	finalizeAverages(rep, n, lossSum)
	return rep, nil
}

// Flush implements FlushTables (tables are authoritative already in the
// functional simulation).
func (m *MultiGPU) Flush() error { return nil }
