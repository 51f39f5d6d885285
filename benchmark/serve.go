package main

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The dense forward pass of the default DLRM MLP (13-512-256-128 bottom,
// 479-1024-1024-512-256-1 top) per served query: serve.Config takes its
// price as an input. engine.RunServe derives the same roofline from the
// model configuration; the self-test checks that the two fleets report
// bit-identically.
const (
	denseParams       = 2_046_337 // trainable scalars, read once per pass
	denseActsPerQuery = 3_890     // activation floats
	denseFlopsPerQ    = 4_094_464 // forward FLOPs
)

func denseForward(gpu hw.Device, n int) float64 {
	return gpu.MatmulTime(denseFlopsPerQ*float64(n), 2*4*(denseParams+denseActsPerQuery*float64(n)))
}

// serveRun is one prepared serving simulation: the fleet and the arrival
// vector the harness generated for it.
type serveRun struct {
	opts     serve.Options
	fleet    *serve.Fleet
	arrivals []float64
}

// config is the serving run's configuration in bench.Config form: the
// bench.Quick() model at the given size, serial fan-out, the workload's
// topology and options.
func (s *serveSpec) config(sz size, seed int64, opts serve.Options) (bench.Config, error) {
	cfg := bench.Quick()
	cfg.Model.RowsPerTable = sz.rows
	cfg.Workers = 1
	cfg.Seed = seed
	cfg.Serve = opts
	if s.topology != "" {
		topo, err := hw.ParseTopology(s.topology)
		if err != nil {
			return cfg, err
		}
		cfg.Topology = topo
	}
	return cfg, nil
}

// build generates the inputs outside the timed region: the environment
// (trace distributions), the fleet with its replica scratchpads, and the
// open-loop arrival vector in virtual time. mutate, when non-nil, edits
// the options for a differencing variant; rec, when non-nil, records each
// step as a span.
func (s *serveSpec) build(sz size, seed int64, mutate func(*serve.Options), rec *recorder) (*serveRun, error) {
	opts, err := s.options(sz)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&opts)
	}
	cfg, err := s.config(sz, seed, opts)
	if err != nil {
		return nil, err
	}
	var env *engine.Env
	rec.time("engine.new_env", 0, func() { env, err = engine.NewEnv(envConfig(cfg, trace.High, false)) })
	if err != nil {
		return nil, err
	}
	run := &serveRun{opts: opts}
	rec.time("serve.new_fleet", 0, func() {
		run.fleet, err = serve.NewFleet(serve.Config{
			Options:      opts,
			NumTables:    cfg.Model.NumTables,
			RowsPerTable: cfg.Model.RowsPerTable,
			Lookups:      cfg.Model.Lookups,
			EmbeddingDim: cfg.Model.EmbeddingDim,
			Dists:        env.Gen.Dists(),
			Seed:         seed,
			System:       cfg.System,
			Topology:     cfg.Topology,
			DenseTime:    denseForward(cfg.System.GPU, 1),
			DenseBatch:   func(n int) float64 { return denseForward(cfg.System.GPU, n) },
			Pool:         env.Pool,
		})
	})
	if err != nil {
		return nil, err
	}
	rec.time("serve.arrival_times", 0, func() { run.arrivals = opts.Arrival.Times(opts.Requests, seed+8200) })
	return run, nil
}

func (s *serveSpec) prepare(sz size, seed int64, mutate func(*serve.Options)) (func() (outcome, error), error) {
	run, err := s.build(sz, seed, mutate, nil)
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		rep, err := run.fleet.Simulate(run.arrivals)
		if err != nil {
			return outcome{}, err
		}
		return serveOutcome(rep), nil
	}, nil
}

// serveOutcome reduces a report to the simulated end-to-end metrics. The
// unit of work is one served query. Its mean and median latency are
// per-layer metrics only: the storm's mean is set by how one flash
// backlog happens to drain (7% from seed to seed), and under capacity
// the median is the service time of an unqueued query, a constant of
// the cost model that no seed moves.
func serveOutcome(rep *serve.Report) outcome {
	return outcome{
		report: rep,
		digest: fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *rep)))),
		sim: map[string]float64{
			"sim_goodput_qps": rep.Goodput,
			"sim_p99_ms":      rep.Latency.P99 * 1e3,
		},
	}
}

// verify checks the workload's mechanism and the report's books. The
// operations attempted are the queries offered; a conservation violation
// or a report that differs between repetitions fails every one of them.
// Queries the simulated fleet sheds, drops or answers late are simulated
// results (they lower sim_goodput_qps), not failed operations.
func (s *serveSpec) verify(res *result, out outcome, p runParams) (map[string]float64, error) {
	rep := out.report
	opts, err := s.options(p.sz)
	if err != nil {
		return nil, err
	}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	if s.storm {
		// The event-driven path ran (only it batches) with a replica
		// down, and at full size every resilience mechanism engaged at
		// least 100 times. (A 1/50 flash crowd is too short to overload
		// the fleet, so the small size asserts the path only.)
		if rep.Batches == 0 {
			problem("storm launched no batch: the event-driven path did not run")
		}
		if !(rep.Availability < 1) {
			problem("storm availability %g, want < 1 (the kill windows missed the run)", rep.Availability)
		}
		if p.sz == full {
			for _, c := range []struct {
				name string
				n    int64
			}{{"retried", rep.Retried}, {"hedged", rep.Hedged}, {"degraded+shed", rep.Degraded + rep.Shed}, {"batches", rep.Batches}} {
				if c.n < 100 {
					problem("storm engaged only %d %s, want >= 100", c.n, c.name)
				}
			}
		}
	} else {
		if opts.Resilient() || opts.Batch.Enabled() {
			problem("steady options engage the event-driven path")
		}
		if n := rep.Retried + rep.Hedged + rep.Shed + rep.Batches; n != 0 {
			problem("steady run retried/hedged/shed/batched %d times, want 0", n)
		}
	}
	res.Attempted = rep.Offered
	if got := rep.Served + rep.Shed + rep.Drops + rep.TimedOut; got != rep.Offered {
		problem("conservation violated: served+shed+drops+timed-out = %d, offered %d", got, rep.Offered)
	}
	if len(res.Problems) > 0 {
		res.Failed = res.Attempted
	}
	return map[string]float64{}, nil
}

// traced records the serving run's set-up and simulation as spans, runs
// the two differencing variants, and replays the replica's plan cycle on
// the scratchpad layer.
func (s *serveSpec) traced(rec *recorder, layer map[string]float64, out outcome, untracedWall float64, p runParams) error {
	simulate := func(mutate func(*serve.Options), name string) (*serve.Report, float64, float64, error) {
		run, err := s.build(p.sz, p.seed, mutate, rec)
		if err != nil {
			return nil, 0, 0, err
		}
		var rep *serve.Report
		var sec float64
		mallocs, _ := allocDelta(func() {
			sec = rec.time(name, 0, func() { rep, err = run.fleet.Simulate(run.arrivals) })
		})
		return rep, sec, mallocs, err
	}
	rep, sec, mallocs, err := simulate(nil, "serve.simulate")
	if err != nil {
		return err
	}
	if d := serveOutcome(rep).digest; d != out.digest {
		return fmt.Errorf("traced simulation produced sim_digest %s, untraced %s", d, out.digest)
	}
	queries := float64(rep.Offered)
	layer["harness.trace_overhead_ratio"] = sec / untracedWall
	layer["serve.simulate_ns_per_query"] = sec * 1e9 / queries
	layer["serve.queries_per_host_s"] = queries / sec
	layer["serve.allocs_per_query"] = mallocs / queries

	// Router cost: the workload's router minus the random router on the
	// identical arrivals. (Routing also moves hit rates, so the
	// difference includes the plans the better placement saves.)
	_, randomSec, _, err := simulate(func(o *serve.Options) { o.Router = serve.PolicyRandom }, "serve.simulate.random_router")
	if err != nil {
		return err
	}
	layer["serve.router_ns_per_query"] = (sec - randomSec) * 1e9 / queries

	// Event-loop overhead: the same zero-fault, unbatched input through
	// the closed-form loop and through the event-driven simulator, which
	// a deadline that never binds forces without changing any outcome.
	plain := func(o *serve.Options) {
		*o = serve.Options{Replicas: o.Replicas, Router: o.Router, Arrival: o.Arrival, Requests: o.Requests}
	}
	closedSec := sec
	if s.storm {
		if _, closedSec, _, err = simulate(plain, "serve.simulate.closed_form"); err != nil {
			return err
		}
	}
	_, eventSec, _, err := simulate(func(o *serve.Options) { plain(o); o.Deadline = 1e9 }, "serve.simulate.event_path")
	if err != nil {
		return err
	}
	layer["serve.event_overhead_ns_per_query"] = (eventSec - closedSec) * 1e9 / queries

	newEnv, n := rec.total("engine.new_env")
	layer["engine.new_env_ms"] = newEnv / float64(n) * 1e3
	newFleet, n := rec.total("serve.new_fleet")
	layer["serve.new_fleet_ms"] = newFleet / float64(n) * 1e3
	times, _ := rec.total("serve.arrival_times")
	layer["serve.arrival_times_ns_per_query"] = times / float64(n) * 1e9 / queries

	layer["serve.offered"] = float64(rep.Offered)
	layer["serve.served"] = float64(rep.Served)
	layer["serve.drops"] = float64(rep.Drops)
	layer["serve.shed"] = float64(rep.Shed)
	layer["serve.timed_out"] = float64(rep.TimedOut)
	layer["serve.retried"] = float64(rep.Retried)
	layer["serve.hedged"] = float64(rep.Hedged)
	layer["serve.degraded"] = float64(rep.Degraded)
	layer["serve.batches"] = float64(rep.Batches)
	layer["serve.mean_batch"] = 0
	meanBatch := 1
	if rep.Batches > 0 {
		layer["serve.mean_batch"] = float64(rep.BatchedQueries) / float64(rep.Batches)
		meanBatch = max(1, int(layer["serve.mean_batch"]+0.5))
	}
	layer["serve.sim_mean_ms"] = rep.Latency.Mean * 1e3
	layer["serve.sim_p50_ms"] = rep.Latency.P50 * 1e3
	layer["serve.hit_rate"] = rep.HitRate()
	layer["serve.cross_host"] = float64(rep.CrossHost)

	// Layer replay: one replica's Plan / Release / Recycle cycle per
	// query (per mean-sized batch when batching is on) on an unsharded
	// scratchpad of the fleet's size.
	opts, err := s.options(p.sz)
	if err != nil {
		return err
	}
	opts = opts.WithDefaults()
	model := bench.Quick().Model
	lr := newLayerReplay(rec, 1, nil, "")
	reserveIDs := model.Lookups * max(1, opts.Batch.Cap)
	plans := p.sz.replayQueries / meanBatch
	if err := lr.point(replayParams{
		tables: model.NumTables, rows: p.sz.rows, lookups: model.Lookups, batch: meanBatch,
		class: trace.High, frac: opts.CacheFrac, seed: p.seed,
		plans: plans, reserveIDs: reserveIDs, shape: servingShape,
	}); err != nil {
		return err
	}
	lr.report(layer)
	// Replayed layer time per query over simulated host time per query.
	layer["harness.replay_coverage"] = (lr.busy / float64(plans*meanBatch)) / (sec / queries)
	lr.msgplaneBench(layer)
	slots := max(int(opts.CacheFrac*float64(p.sz.rows)), 1)
	if err := microLayers(layer, p.sz.rows, slots, 0, reserveIDs, p.seed); err != nil {
		return err
	}
	idle(layer, p.spec, "engine.", "dlrm.")
	return nil
}
