package engine

import (
	"math/rand"

	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/shard"
	"repro/internal/trace"
)

// newSeededRand returns a deterministic PRNG stream for the given seed.
func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// mlpFlopsPerIteration computes the dense FLOPs of one training iteration
// (forward + backward ~ 3x forward) from the configuration alone, so
// metadata-mode engines need not instantiate a model.
func mlpFlopsPerIteration(cfg dlrm.Config) float64 {
	batch := float64(cfg.BatchSize)
	fwd := chainFlops(batch, cfg.DenseDim, cfg.BottomHidden, cfg.EmbeddingDim)
	fwd += chainFlops(batch, cfg.TopInputDim(), cfg.TopHidden, 1)
	fwd += 2 * batch * float64(cfg.NumInteractionPairs()) * float64(cfg.EmbeddingDim)
	return 3 * fwd
}

// chainFlops sums the matmul FLOPs of the layer chain in -> hidden... ->
// out, walking the layer widths in place (the multi-GPU engines call
// these formulas every cycle, so no slices are built).
func chainFlops(batch float64, in int, hidden []int, out int) float64 {
	prev, f := in, 0.0
	for _, h := range hidden {
		f += 2 * batch * float64(prev) * float64(h)
		prev = h
	}
	return f + 2*batch*float64(prev)*float64(out)
}

// mlpParamCount returns the number of dense trainable scalars (for the
// multi-GPU allreduce volume).
func mlpParamCount(cfg dlrm.Config) float64 {
	return chainParams(cfg.DenseDim, cfg.BottomHidden, cfg.EmbeddingDim) +
		chainParams(cfg.TopInputDim(), cfg.TopHidden, 1)
}

// chainParams sums weights + biases of the layer chain in -> hidden... ->
// out.
func chainParams(in int, hidden []int, out int) float64 {
	prev, n := in, 0.0
	for _, h := range hidden {
		n += float64(prev)*float64(h) + float64(h)
		prev = h
	}
	return n + float64(prev)*float64(out) + float64(out)
}

// costModel bundles the latency formulas shared by the engines. All times
// are simulated seconds.
type costModel struct {
	env *Env
}

func (c costModel) dim() int { return c.env.Cfg.Model.EmbeddingDim }

// idBytes is the transfer payload of n sparse IDs (int64).
func idBytes(n int) float64 { return float64(n) * 8 }

// gatherCPU / gatherGPU: random row reads.
func (c costModel) gatherCPU(rows int) float64 {
	return c.env.Cfg.System.CPU.GatherTime(rows, c.dim())
}

func (c costModel) gatherGPU(rows int) float64 {
	return c.env.Cfg.System.GPU.GatherTime(rows, c.dim())
}

// scatterWrite: full-row random writes (cache fills, eviction write-backs).
func (c costModel) scatterWriteCPU(rows int) float64 {
	return c.env.Cfg.System.CPU.ScatterWriteTime(rows, c.dim())
}

func (c costModel) scatterWriteGPU(rows int) float64 {
	return c.env.Cfg.System.GPU.ScatterWriteTime(rows, c.dim())
}

// scatterUpdate: read-modify-write optimizer scatters.
func (c costModel) scatterUpdateCPU(rows int) float64 {
	return c.env.Cfg.System.CPU.ScatterUpdateTime(rows, c.dim())
}

func (c costModel) scatterUpdateGPU(rows int) float64 {
	return c.env.Cfg.System.GPU.ScatterUpdateTime(rows, c.dim())
}

// reduce: per-table pooled reduction.
func (c costModel) reduceCPU(total, out int) float64 {
	return c.env.Cfg.System.CPU.ReduceTime(total, out, c.dim())
}

func (c costModel) reduceGPU(total, out int) float64 {
	return c.env.Cfg.System.GPU.ReduceTime(total, out, c.dim())
}

// dupCoalesce: gradient duplication + coalescing (Figure 2b).
func (c costModel) dupCoalesceCPU(batch, total, uniq int) float64 {
	return c.env.Cfg.System.CPU.GradDuplicateCoalesceTime(batch, total, uniq, c.dim())
}

func (c costModel) dupCoalesceGPU(batch, total, uniq int) float64 {
	return c.env.Cfg.System.GPU.GradDuplicateCoalesceTime(batch, total, uniq, c.dim())
}

// stateDim is the optimizer's per-row state width (0 when stateless).
func (c costModel) stateDim() int { return c.env.StateDim }

// stateUpdateCPU / stateUpdateGPU: optimizer-state read-modify-write.
func (c costModel) stateUpdateCPU(rows int) float64 {
	if c.stateDim() == 0 {
		return 0
	}
	return c.env.Cfg.System.CPU.ScatterUpdateTime(rows, c.stateDim())
}

func (c costModel) stateUpdateGPU(rows int) float64 {
	if c.stateDim() == 0 {
		return 0
	}
	return c.env.Cfg.System.GPU.ScatterUpdateTime(rows, c.stateDim())
}

// stateMoveCPU / stateMoveGPU: optimizer-state row movement (gathers into
// staging on Collect, scatters on Insert).
func (c costModel) stateMoveCPU(rows int) float64 {
	if c.stateDim() == 0 {
		return 0
	}
	return c.env.Cfg.System.CPU.RandomTime(float64(rows) * float64(c.stateDim()) * 4)
}

func (c costModel) stateMoveGPU(rows int) float64 {
	if c.stateDim() == 0 {
		return 0
	}
	return c.env.Cfg.System.GPU.RandomTime(float64(rows) * float64(c.stateDim()) * 4)
}

// stateBytes is the payload of rows state rows.
func (c costModel) stateBytes(rows int) float64 {
	return float64(rows) * float64(c.stateDim()) * 4
}

// pcie / pcieDuplex: CPU<->GPU transfers.
func (c costModel) pcie(bytes float64) float64 {
	return c.env.Cfg.System.PCIe.TransferTime(bytes)
}

func (c costModel) pcieDuplex(up, down float64) float64 {
	return c.env.Cfg.System.PCIe.DuplexTransferTime(up, down)
}

// embBytes is the payload of rows embedding rows.
func (c costModel) embBytes(rows int) float64 {
	return float64(rows) * float64(c.dim()) * 4
}

// mlpTime is the GPU dense time of one full training iteration: bottom and
// top MLP forward+backward, feature interaction, plus the fixed
// per-iteration framework overhead. Charged once per iteration. The value
// depends only on the configuration, so NewEnv computes it once and every
// per-cycle call reads the cache.
func (c costModel) mlpTime() float64 { return c.env.mlpIterTime }

// computeMLPTime is the uncached formula behind mlpTime.
func (c costModel) computeMLPTime() float64 {
	cfg := c.env.Cfg.Model
	flops := mlpFlopsPerIteration(cfg)
	// Operand traffic: weights and activations each stream roughly once
	// per forward/backward pass (3 passes: fwd, dgrad, wgrad), read and
	// written.
	bytes := 3 * 2 * 4 * (mlpParamCount(cfg) + mlpActivationFloats(cfg))
	return c.env.Cfg.System.GPU.MatmulTime(flops, bytes) + c.env.Cfg.System.GPU.IterOverhead
}

// mlpActivationFloats estimates the activation tensor volume of one
// forward pass (batch x every layer width).
func mlpActivationFloats(cfg dlrm.Config) float64 {
	widths := cfg.DenseDim + cfg.EmbeddingDim + cfg.TopInputDim() + 1
	for _, w := range cfg.BottomHidden {
		widths += w
	}
	for _, w := range cfg.TopHidden {
		widths += w
	}
	return float64(cfg.BatchSize) * float64(widths)
}

// denseInputBytes is the PCIe payload of the batch's continuous features.
func (c costModel) denseInputBytes() float64 {
	cfg := c.env.Cfg.Model
	return float64(cfg.BatchSize) * float64(cfg.DenseDim) * 4
}

// pooledBytes is the payload of one table's pooled output (batch x dim).
func (c costModel) pooledBytes() float64 {
	cfg := c.env.Cfg.Model
	return float64(cfg.BatchSize) * float64(cfg.EmbeddingDim) * 4
}

// --- cross-node shard coordination -------------------------------------
//
// When EnvConfig places scratchpad shards across topology nodes, the
// shard coordinator's victim-merge, touch-stamp, and free-slot-borrow
// messages are metered in bytes (internal/shard's coordMeter) and priced
// on the links each table's placement crosses. The resulting latency is
// charged to the [Plan] stage — the coordinator runs inside Plan — and
// surfaces as Report.CoordTime. With every shard on one node the charge
// is exactly zero, so all pre-topology figures are bit-identical.

// loadWeightSamples is the number of trace-distribution draws used to
// estimate per-shard query mass for load-aware placement.
const loadWeightSamples = 4096

// shardLoadWeights estimates each shard's share of one table's query
// mass: draws from the table's trace distribution are hashed through the
// shard router and counted. Deterministic in the seed, so every engine
// built over the same environment places identically.
func shardLoadWeights(dist trace.Distribution, seed int64, shards int) []float64 {
	rng := newSeededRand(seed)
	w := make([]float64, shards)
	for i := 0; i < loadWeightSamples; i++ {
		w[shard.ShardOf(dist.Sample(rng), shards)]++
	}
	return w
}

// placementFor builds table t's shard-to-node assignment under the
// environment's topology and placement policy. The zero Placement
// (co-located, costless) is returned when no topology is configured or
// the table is unsharded.
func placementFor(env *Env, t, shards int) (hw.Placement, error) {
	topo := env.Cfg.Topology
	if topo == nil || shards <= 1 {
		return hw.Placement{}, nil
	}
	policy, err := hw.ParsePlacementPolicy(string(env.Cfg.Placement))
	if err != nil {
		return hw.Placement{}, err
	}
	var weights []float64
	if policy == hw.PlaceLoadAware {
		// Per-shard heat varies per table (hot tables concentrate
		// their mass on few shards), so each table places its own
		// shards against its own distribution.
		weights = shardLoadWeights(env.Gen.Dists()[t], env.Cfg.Seed+int64(5000+t), shards)
	}
	return hw.NewPlacement(policy, topo, shards, weights)
}
