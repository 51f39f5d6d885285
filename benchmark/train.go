package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// prepare parses the topology, builds the sweep configuration and one
// environment per locality class (which validates the configuration the
// way every data point of the sweep will), then returns the timed call:
// one bench.CollectFigure13.
func (t *trainSpec) prepare(sz size, seed int64) (func() (outcome, error), error) {
	cfg, err := t.config(sz, seed)
	if err != nil {
		return nil, err
	}
	for _, class := range trace.Classes {
		if _, err := engine.NewEnv(envConfig(cfg, class, false)); err != nil {
			return nil, err
		}
	}
	return func() (outcome, error) {
		pts, err := bench.CollectFigure13(cfg)
		if err != nil {
			return outcome{}, err
		}
		return trainOutcome(cfg, pts), nil
	}, nil
}

// trainOutcome reduces a sweep to the simulated end-to-end metrics. The
// unit of work is one ScratchPipe training iteration: sim_goodput_qps is
// the samples trained per simulated second at the mean iteration time of
// the 20 data points, and sim_p99_ms the slowest point (20 samples
// support no 99th percentile).
func trainOutcome(cfg bench.Config, pts []bench.SpeedupPoint) outcome {
	iters := make([]float64, len(pts))
	var sum float64
	h := sha256.New()
	for i, p := range pts {
		iters[i] = p.ScratchPipe
		sum += p.ScratchPipe
		fmt.Fprintf(h, "%+v\n", p)
	}
	mean := sum / float64(len(pts))
	return outcome{
		points: pts,
		digest: fmt.Sprintf("%x", h.Sum(nil)),
		sim: map[string]float64{
			"sim_goodput_qps": float64(cfg.Model.BatchSize) / mean,
			"sim_p99_ms":      summarize(iters).Max * 1e3,
		},
	}
}

// engineNames are the four cache design points of Figure 13, in the
// sweep's order; buildEngine goes through their exported constructors.
var engineNames = []string{"hybrid", "static", "strawman", "scratchpipe"}

func buildEngine(name string, env *engine.Env, frac float64) (engine.Engine, error) {
	switch name {
	case "hybrid":
		return engine.NewHybrid(env), nil
	case "static":
		return engine.NewStaticCache(env, frac)
	case "strawman":
		return engine.NewStrawMan(env, frac, "lru")
	}
	return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: frac})
}

// runEngine is one engine run of the sweep: fresh environment, build
// (scratchpad construction and prewarm), cfg.Iters iterations.
func runEngine(cfg bench.Config, class trace.Class, name string, frac float64, functional bool) (*engine.Report, error) {
	env, err := engine.NewEnv(envConfig(cfg, class, functional))
	if err != nil {
		return nil, err
	}
	eng, err := buildEngine(name, env, frac)
	if err != nil {
		return nil, err
	}
	return eng.Run(cfg.Iters)
}

// verify runs the untimed correctness checks of a training workload and
// counts the data points that fail one. It returns the per-layer
// metrics it measures on the way (the functional runs).
func (t *trainSpec) verify(res *result, out outcome, p runParams) (map[string]float64, error) {
	cfg, err := t.config(p.sz, p.seed)
	if err != nil {
		return nil, err
	}
	pts := out.points
	bad := make([]bool, len(pts))
	fail := func(i int, format string, args ...any) {
		bad[i] = true
		res.Problems = append(res.Problems, fmt.Sprintf("%s cache %g%%: ", pts[i].Class, pts[i].CacheFrac*100)+fmt.Sprintf(format, args...))
	}

	// Mechanism: co-located sweeps exchange no coordination rounds,
	// sharded ones must.
	var rounds int64
	for _, pt := range pts {
		rounds += pt.CoordRounds
	}
	if t.shards <= 1 && rounds != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("co-located sweep exchanged %d coordination rounds", rounds))
	}
	if t.shards > 1 && rounds == 0 {
		res.Problems = append(res.Problems, "sharded sweep exchanged no coordination rounds")
	}

	// The paper's ordering at every data point (TestHeadlineShape).
	if t.shape {
		for i, pt := range pts {
			if pt.ScratchPipe >= pt.Static {
				fail(i, "ScratchPipe %.3f ms not faster than static %.3f ms", pt.ScratchPipe*1e3, pt.Static*1e3)
			}
			if pt.ScratchPipe >= pt.StrawMan {
				fail(i, "ScratchPipe %.3f ms not faster than straw-man %.3f ms", pt.ScratchPipe*1e3, pt.StrawMan*1e3)
			}
			if pt.Static > 1.05*pt.Hybrid {
				fail(i, "static %.3f ms slower than 1.05 x hybrid %.3f ms", pt.Static*1e3, pt.Hybrid*1e3)
			}
		}
	}

	// Sharding is a pure decomposition: at the smallest cache of every
	// class (the most evictions) both dynamic-cache engines must report
	// the co-located run's cache statistics.
	if t.shards > 1 {
		colo := cfg
		colo.Shards, colo.Topology, colo.Placement, colo.Coord = 0, nil, "", ""
		frac := bench.CacheFracs[0]
		for c, class := range trace.Classes {
			for _, name := range []string{"strawman", "scratchpipe"} {
				sharded, err := runEngine(cfg, class, name, frac, false)
				if err != nil {
					return nil, err
				}
				ref, err := runEngine(colo, class, name, frac, false)
				if err != nil {
					return nil, err
				}
				if sharded.Hits != ref.Hits || sharded.Misses != ref.Misses ||
					sharded.Fills != ref.Fills || sharded.Evictions != ref.Evictions {
					fail(c*len(bench.CacheFracs), "%s sharded hits/misses/fills/evictions %d/%d/%d/%d, co-located %d/%d/%d/%d",
						name, sharded.Hits, sharded.Misses, sharded.Fills, sharded.Evictions,
						ref.Hits, ref.Misses, ref.Fills, ref.Evictions)
				}
			}
		}
	}

	// "Algorithmically identical": a functional (real float32) ScratchPipe
	// run must train to the bit-same mean loss as the uncached hybrid.
	// The model is cmd/dlrmtrain's functional configuration: small tables
	// and MLPs, so real float32 math stays cheap.
	fn := cfg
	fn.Model.RowsPerTable, fn.Model.BatchSize, fn.Iters = p.sz.funcRows, p.sz.funcBatch, 20
	fn.Model.BottomHidden, fn.Model.TopHidden = []int{64, 32}, []int{128, 64}
	layer := map[string]float64{}
	var loss [2]float64
	for i, name := range []string{"hybrid", "scratchpipe"} {
		t0 := time.Now()
		rep, err := runEngine(fn, trace.High, name, bench.CacheFracs[0], true)
		if err != nil {
			return nil, err
		}
		loss[i] = rep.AvgLoss
		layer["dlrm.functional_iter_ms."+name] = time.Since(t0).Seconds() * 1e3 / float64(fn.Iters)
	}
	if math.Float64bits(loss[0]) != math.Float64bits(loss[1]) {
		res.Problems = append(res.Problems, fmt.Sprintf("functional ScratchPipe mean loss %.17g differs from hybrid %.17g", loss[1], loss[0]))
		for i := range bad {
			bad[i] = true
		}
	}

	res.Attempted = int64(len(pts))
	for _, b := range bad {
		if b {
			res.Failed++
		}
	}
	return layer, nil
}

// traced re-runs the sweep with the harness's own loop over the engines
// so each data point's environment, build and run are separate spans
// summing to the sweep, then replays the inner layers on the identical
// batch stream.
func (t *trainSpec) traced(rec *recorder, layer map[string]float64, out outcome, untracedWall float64, p runParams) error {
	cfg, err := t.config(p.sz, p.seed)
	if err != nil {
		return err
	}
	sweep := rec.begin("engine.sweep", 0)
	runAllocs := map[string]float64{}
	var stage [core.NumStages]float64
	var speedup float64
	point := 0
	run := func(class trace.Class, name string, frac float64) (*engine.Report, error) {
		var env *engine.Env
		var eng engine.Engine
		var rep *engine.Report
		var err error
		rec.time("engine.new_env", sweep, func() { env, err = engine.NewEnv(envConfig(cfg, class, false)) })
		if err != nil {
			return nil, err
		}
		rec.time("engine.build."+name, sweep, func() { eng, err = buildEngine(name, env, frac) })
		if err != nil {
			return nil, err
		}
		id := rec.begin("engine.run."+name, sweep)
		mallocs, _ := allocDelta(func() { rep, err = eng.Run(cfg.Iters) })
		rec.end(id)
		runAllocs[name] += mallocs
		return rep, err
	}
	for _, class := range trace.Classes {
		hybrid, err := run(class, "hybrid", 0)
		if err != nil {
			return err
		}
		for _, frac := range bench.CacheFracs {
			var reps [4]*engine.Report
			reps[0] = hybrid
			for i, name := range engineNames[1:] {
				if reps[i+1], err = run(class, name, frac); err != nil {
					return err
				}
			}
			// The traced sweep must be the computation the untraced
			// one timed.
			want := out.points[point]
			got := [4]float64{reps[0].IterTime, reps[1].IterTime, reps[2].IterTime, reps[3].IterTime}
			if got != [4]float64{want.Hybrid, want.Static, want.StrawMan, want.ScratchPipe} {
				return fmt.Errorf("traced sweep diverged from bench.CollectFigure13 at %s cache %g%%", class, frac*100)
			}
			for s := range stage {
				stage[s] += reps[3].StageAvg[s]
			}
			speedup += want.Static / want.ScratchPipe
			point++
		}
	}
	tracedWall := rec.end(sweep)

	n := float64(point)
	layer["harness.trace_overhead_ratio"] = tracedWall / untracedWall
	layer["engine.sim_speedup_vs_static"] = speedup / n
	layer["engine.sim_iter_ms"] = float64(cfg.Model.BatchSize) / out.sim["sim_goodput_qps"] * 1e3
	sec, calls := rec.total("engine.new_env")
	layer["engine.new_env_ms"] = sec / float64(calls) * 1e3
	var dynamic float64
	for _, name := range engineNames {
		build, _ := rec.total("engine.build." + name)
		run, _ := rec.total("engine.run." + name)
		layer["engine.build_ms."+name] = build * 1e3
		layer["engine.run_ms."+name] = run * 1e3
		layer["engine.run_allocs."+name] = runAllocs[name]
		if name == "strawman" || name == "scratchpipe" {
			dynamic += build + run
		}
	}
	for s, name := range map[core.Stage]string{
		core.StagePlan: "plan", core.StageCollect: "collect", core.StageExchange: "exchange",
		core.StageInsert: "insert", core.StageTrain: "train",
	} {
		layer["engine.stage_sim_ms."+name] = stage[s] / n * 1e3
	}

	// Layer replay: the batch stream and the scratchpad control plane of
	// both dynamic-cache engines, driven directly at every data point.
	lr := newLayerReplay(rec, t.shards, cfg.Topology, t.coord)
	for _, class := range trace.Classes {
		for _, frac := range bench.CacheFracs {
			for _, sh := range []planShape{strawmanShape, scratchpipeShape} {
				rp := replayParams{
					tables: cfg.Model.NumTables, rows: cfg.Model.RowsPerTable, lookups: cfg.Model.Lookups,
					batch: cfg.Model.BatchSize, class: class, frac: frac, seed: cfg.Seed,
					plans: cfg.Iters, shape: sh,
				}
				// One point keeps planning past the sweep's window,
				// for the warm (steady-state) plan cost.
				if class == trace.High && frac == bench.CacheFracs[0] && sh.name == scratchpipeShape.name {
					rp.warmPlans = 16
				}
				if err := lr.point(rp); err != nil {
					return err
				}
			}
		}
	}
	lr.report(layer)
	layer["harness.replay_coverage"] = lr.busy / dynamic

	slots := int(bench.CacheFracs[0] * float64(cfg.Model.RowsPerTable))
	spCfg := core.Config{Slots: max(slots, 1), PastWindow: scratchpipeShape.past, FutureWindow: scratchpipeShape.future}
	reserve := core.WorstCaseReserve(spCfg, cfg.Model.BatchSize*cfg.Model.Lookups)
	if err := microLayers(layer, cfg.Model.RowsPerTable, spCfg.Slots, reserve, cfg.Model.BatchSize*cfg.Model.Lookups, cfg.Seed); err != nil {
		return err
	}
	lr.msgplaneBench(layer)
	idle(layer, p.spec, "serve.")
	return nil
}
