package engine

import (
	"repro/internal/serve"
)

// inferenceDenseTime prices one single-query dense forward pass: the
// bottom/top MLP chains and the feature interaction at batch size 1,
// one pass (no backward), operands read and written once. The training
// IterOverhead is deliberately excluded — that models the framework's
// per-training-iteration bookkeeping, while serving's launch overheads
// are already charged per-kernel, once per launch of one or more
// queries, inside serve.ServiceTime.
func inferenceDenseTime(env *Env) float64 {
	return inferenceDenseBatchTime(env, 1)
}

// inferenceDenseBatchTime prices the dense forward at serving batch
// size n on the MLP roofline: FLOPs and activation bytes scale with n,
// the weight-read bytes and the kernel launch are paid once — so the
// marginal cost of the n-th query is strictly below the first's, the
// amortization replica-side batching (serve.BatchSpec) exists to
// capture.
func inferenceDenseBatchTime(env *Env, n int) float64 {
	cfg := env.Cfg.Model
	flops := mlpFlopsPerIteration(cfg) / 3 / float64(cfg.BatchSize) * float64(n)
	acts := mlpActivationFloats(cfg) / float64(cfg.BatchSize) * float64(n)
	bytes := 2 * 4 * (mlpParamCount(cfg) + acts)
	return env.Cfg.System.GPU.MatmulTime(flops, bytes)
}

// RunServe plays the environment's serving configuration (EnvConfig's
// Serve options over its model, trace class, topology, and shard knobs)
// and returns the serving report. The training path is untouched:
// serving builds its own replica scratchpads from the same seed and
// never touches the environment's generator or tables.
func RunServe(env *Env) (*serve.Report, error) {
	cfg := env.Cfg
	return serve.Run(serve.Config{
		Options:      cfg.Serve,
		NumTables:    cfg.Model.NumTables,
		RowsPerTable: cfg.Model.RowsPerTable,
		Lookups:      cfg.Model.Lookups,
		EmbeddingDim: cfg.Model.EmbeddingDim,
		Dists:        env.Gen.Dists(),
		Seed:         cfg.Seed,
		System:       cfg.System,
		Topology:     cfg.Topology,
		Shards:       cfg.Shards,
		Coord:        cfg.Coord,
		DenseTime:    inferenceDenseTime(env),
		DenseBatch:   func(n int) float64 { return inferenceDenseBatchTime(env, n) },
		Pool:         env.Pool,
	})
}
