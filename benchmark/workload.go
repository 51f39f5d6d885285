package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
)

// size scales every workload's input. full is what BENCHMARK.json's
// numbers refer to; small (about 1/50) is the warm-up call of every
// set-up and the self-test's size.
type size struct {
	rows          int64 // rows per embedding table
	batch         int   // training mini-batch size
	steadyQueries int   // serve_steady arrivals
	stormQueries  int   // serve_storm arrivals
	replayQueries int   // queries the serving layer replay plans
	funcRows      int64 // table rows of the functional (float32) check
	funcBatch     int
}

var (
	full  = size{rows: 200_000, batch: 256, steadyQueries: 50_000, stormQueries: 100_000, replayQueries: 10_000, funcRows: 20_000, funcBatch: 64}
	small = size{rows: 4_000, batch: 8, steadyQueries: 1_000, stormQueries: 2_000, replayQueries: 200, funcRows: 2_000, funcBatch: 4}
)

// workload is one named input set. Exactly one of train/serve is set.
type workload struct {
	name  string
	train *trainSpec
	serve *serveSpec
}

// trainSpec shapes a Figure 13 sweep (bench.CollectFigure13): 4 locality
// classes x 5 cache fractions x {hybrid, static, strawman, scratchpipe}.
type trainSpec struct {
	shards   int
	topology string
	coord    shard.CoordMode
	// shape enables the TestHeadlineShape contract per data point.
	// Per-eviction (exact) rounds on a two-host cluster price
	// coordination above the whole iteration, so ScratchPipe loses to
	// the static cache there by construction and the paper's ordering
	// is not asserted.
	shape bool
}

// serveSpec shapes one serving simulation on the High-locality trace.
type serveSpec struct {
	topology string
	options  func(sz size) (serve.Options, error)
	// storm marks the event-driven workload: resilience, batching and
	// replica kills must all engage. The other one must bypass them.
	storm bool
}

var workloads = []workload{
	{name: "train_colocated", train: &trainSpec{shape: true}},
	{name: "train_sharded_hier", train: &trainSpec{shards: 4, topology: "cluster2x2", coord: shard.CoordHier, shape: true}},
	{name: "train_sharded_exact", train: &trainSpec{shards: 4, topology: "cluster2x2", coord: shard.CoordExact}},
	{name: "serve_steady", serve: &serveSpec{options: steadyOptions}},
	{name: "serve_storm", serve: &serveSpec{topology: "cluster2x2", options: stormOptions, storm: true}},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config builds the sweep configuration: the bench.Quick() model at
// the given size, serial fan-out, metadata mode.
func (t *trainSpec) config(sz size, seed int64) (bench.Config, error) {
	cfg := bench.Quick()
	cfg.Model.RowsPerTable = sz.rows
	cfg.Model.BatchSize = sz.batch
	cfg.Workers = 1
	cfg.Seed = seed
	if t.topology != "" {
		topo, err := hw.ParseTopology(t.topology)
		if err != nil {
			return cfg, err
		}
		cfg.Topology = topo
		cfg.Placement = hw.PlaceStripe
	}
	cfg.Shards = t.shards
	cfg.Coord = t.coord
	return cfg, nil
}

// envConfig is the per-data-point environment bench.CollectFigure13
// builds from cfg, for the harness's own loops over the engines.
func envConfig(cfg bench.Config, class trace.Class, functional bool) engine.EnvConfig {
	return engine.EnvConfig{
		Model:      cfg.Model,
		System:     cfg.System,
		Class:      class,
		Seed:       cfg.Seed,
		Functional: functional,
		Workers:    cfg.Workers,
		Shards:     cfg.Shards,
		Topology:   cfg.Topology,
		Placement:  cfg.Placement,
		Coord:      cfg.Coord,
		Serve:      cfg.Serve,
	}
}

// steadyOptions: under simulated capacity, no resilience or batching
// knob, so Fleet.Simulate takes the closed-form arrival-ordered loop.
func steadyOptions(sz size) (serve.Options, error) {
	return serve.Options{
		Replicas: 4,
		Router:   serve.PolicyHitAware,
		Arrival:  serve.ArrivalSpec{Shape: serve.ShapePoisson, Rate: 10000},
		Requests: sz.steadyQueries,
	}, nil
}

// stormOptions: a flash crowd over capacity (8x the base rate for 3% of
// the nominal horizon, early enough that its backlog drains before the
// arrivals end, which keeps the simulated duration and so the goodput
// steady across seeds) with every resilience knob, batching, and two
// replica kill/heal windows opening inside the flash, where the queues a
// kill flushes are full. Fleet.Simulate takes the event-driven path. The
// windows are fractions of the nominal horizon (queries / base rate).
// The hedge delay sits above the flash's queueing delay for most
// queries: a flushed query that already has a hedge in flight is not
// retried, so a shorter delay starves the retry path.
func stormOptions(sz size) (serve.Options, error) {
	const rate = 16000
	horizon := float64(sz.stormQueries) / rate
	faults, err := hw.ParseFaultPlan(fmt.Sprintf("replica1@%g-%g,replica2@%g-%g",
		0.1056*horizon, 0.128*horizon, 0.1152*horizon, 0.152*horizon))
	if err != nil {
		return serve.Options{}, err
	}
	return serve.Options{
		Replicas:  4,
		Router:    serve.PolicyTelemetry,
		Arrival:   serve.ArrivalSpec{Shape: serve.ShapeFlash, Rate: rate, Mult: 8, At: 0.1, Dur: 0.03},
		Requests:  sz.stormQueries,
		QueueCap:  128,
		Batch:     serve.BatchSpec{Cap: 8},
		Retry:     serve.RetrySpec{Max: 2, Backoff: 2e-3},
		Hedge:     12e-3,
		Deadline:  50e-3,
		Admission: serve.AdmissionSpec{Policy: serve.AdmitCheapest, Degrade: true},
		Faults:    faults,
	}, nil
}
