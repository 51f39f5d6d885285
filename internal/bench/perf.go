package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dlrm"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Figure12a reproduces the latency breakdown of the baselines: hybrid
// CPU-GPU (cache 0%) and the static cache swept from 2% to 10%, broken
// into CPU embedding forward / backward and GPU time.
func Figure12a(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 12a: latency breakdown (ms) -- baseline + static cache sweep",
		Columns: []string{"class", "cache", "cpu-emb-fwd", "cpu-emb-bwd", "gpu", "total"},
	}
	fracs := append([]float64{0}, CacheFracs...)
	for _, class := range trace.Classes {
		env, err := newEnv(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		for _, frac := range fracs {
			build := buildHybrid
			label := "0%"
			if frac > 0 {
				build = buildStatic(frac)
				label = fmt.Sprintf("%g%%", frac*100)
			}
			rep, err := runEngine(env, cfg.Iters, build)
			if err != nil {
				return nil, err
			}
			tab.AddRow(class.String(), label,
				ms(rep.CPUEmbFwd), ms(rep.CPUEmbBwd), ms(rep.GPUTime), ms(rep.IterTime))
		}
	}
	return tab, nil
}

// Figure12b reproduces ScratchPipe's per-stage pipeline latency across the
// cache-size sweep. The steady-state iteration time is the max stage
// latency, not the sum — that is the whole point of pipelining.
func Figure12b(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 12b: ScratchPipe per-stage pipeline latency (ms)",
		Columns: []string{"class", "cache", "plan", "collect", "exchange", "insert", "train", "iter(max)"},
	}
	for _, class := range trace.Classes {
		env, err := newEnv(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		for _, frac := range CacheFracs {
			rep, err := runEngine(env, cfg.Iters, buildScratchPipe(frac, cfg.CoordOverlap))
			if err != nil {
				return nil, err
			}
			tab.AddRow(class.String(), fmt.Sprintf("%g%%", frac*100),
				ms(rep.StageAvg[core.StagePlan]),
				ms(rep.StageAvg[core.StageCollect]),
				ms(rep.StageAvg[core.StageExchange]),
				ms(rep.StageAvg[core.StageInsert]),
				ms(rep.StageAvg[core.StageTrain]),
				ms(rep.IterTime))
		}
	}
	return tab, nil
}

// SpeedupPoint is one Figure 13 data point.
type SpeedupPoint struct {
	Class     trace.Class
	CacheFrac float64
	// Iteration times (seconds) of the four design points.
	Hybrid, Static, StrawMan, ScratchPipe float64
	// CoordRounds/CoordSeconds total the dynamic-cache engines'
	// cross-node shard-coordination message rounds and modeled link
	// time at this point (zero under co-located placements).
	CoordRounds  int64
	CoordSeconds float64
	// CoordWallSeconds totals the same engines' MEASURED coordination
	// wall — the message plane's makespan (internal/msgplane) rather
	// than the meter's serialized arithmetic; the modeled-vs-measured
	// skew is defined over the two (DESIGN.md §12).
	CoordWallSeconds float64
	// Overlap totals the ScratchPipe run's speculative-coordination
	// outcomes at this point (all zero unless cfg.CoordOverlap).
	Overlap shard.OverlapStats
	// ScratchPipeWall is the ScratchPipe run's total modeled wall at
	// this point (fill + steady cycles + episodic stalls). Deterministic
	// for a configuration, and strictly smaller with CoordOverlap on a
	// distributed placement — benchgate gates the overlap win on it.
	ScratchPipeWall float64
	// MigrationSeconds totals the dynamic-cache engines' modeled
	// elastic-resharding migration latency at this point (zero without
	// a reshard schedule or under co-located migration).
	MigrationSeconds float64
	// DowntimeSeconds/RecoverySeconds total the dynamic-cache engines'
	// modeled fault outage and repair time at this point (zero without
	// a fault plan; see engine.Report.Downtime/RecoveryTime).
	DowntimeSeconds float64
	RecoverySeconds float64
}

// SpeedupVsStatic returns each design's speedup normalized to the static
// cache, as the paper plots.
func (p SpeedupPoint) SpeedupVsStatic() (hybrid, strawman, scratchpipe float64) {
	return p.Static / p.Hybrid, p.Static / p.StrawMan, p.Static / p.ScratchPipe
}

// CollectFigure13 gathers the raw data behind Figure 13 so both the table
// renderer and the hot-path measurement can use it (EXPERIMENTS.md
// documents how to reproduce and diff-verify the sweep).
func CollectFigure13(cfg Config) ([]SpeedupPoint, error) {
	var pts []SpeedupPoint
	for _, class := range trace.Classes {
		env, err := newEnv(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		hybrid, err := runEngine(env, cfg.Iters, buildHybrid)
		if err != nil {
			return nil, err
		}
		for _, frac := range CacheFracs {
			static, err := runEngine(env, cfg.Iters, buildStatic(frac))
			if err != nil {
				return nil, err
			}
			sm, err := runEngine(env, cfg.Iters, buildStrawMan(frac))
			if err != nil {
				return nil, err
			}
			sp, err := runEngine(env, cfg.Iters, buildScratchPipe(frac, cfg.CoordOverlap))
			if err != nil {
				return nil, err
			}
			pts = append(pts, speedupPoint(class, frac, hybrid, static, sm, sp))
		}
	}
	return pts, nil
}

// speedupPoint assembles one Figure 13 point from its four engine runs.
func speedupPoint(class trace.Class, frac float64, hybrid, static, sm, sp *engine.Report) SpeedupPoint {
	pt := SpeedupPoint{
		Class: class, CacheFrac: frac,
		Hybrid: hybrid.IterTime, Static: static.IterTime,
		StrawMan: sm.IterTime, ScratchPipe: sp.IterTime,
		CoordRounds:  sm.Coord.Messages + sp.Coord.Messages,
		CoordSeconds: sm.Coord.Seconds + sp.Coord.Seconds,
		CoordWallSeconds: sm.Coord.WallSeconds + sm.Coord.WallHiddenSeconds +
			sp.Coord.WallSeconds + sp.Coord.WallHiddenSeconds,
		MigrationSeconds: sm.MigrationTime + sp.MigrationTime,
		DowntimeSeconds:  sm.Downtime + sp.Downtime,
		RecoverySeconds:  sm.RecoveryTime + sp.RecoveryTime,
		ScratchPipeWall:  sp.Wall,
	}
	pt.Overlap.Merge(sm.Overlap)
	pt.Overlap.Merge(sp.Overlap)
	return pt
}

// Figure13 reproduces the end-to-end speedup plot (normalized to the
// static cache).
func Figure13(cfg Config) (*Table, error) {
	pts, err := CollectFigure13(cfg)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   "Figure 13: end-to-end speedup (normalized to static cache)",
		Columns: []string{"class", "cache", "hybrid", "static", "strawman", "scratchpipe", "sp-vs-hybrid"},
	}
	var sum, maxSp float64
	var sumH float64
	for _, p := range pts {
		h, sm, sp := p.SpeedupVsStatic()
		tab.AddRow(p.Class.String(), fmt.Sprintf("%g%%", p.CacheFrac*100),
			x2(h), x2(1.0), x2(sm), x2(sp), x2(p.Hybrid/p.ScratchPipe))
		sum += sp
		sumH += p.Hybrid / p.ScratchPipe
		if sp > maxSp {
			maxSp = sp
		}
	}
	n := float64(len(pts))
	tab.AddRow("SUMMARY", "",
		"", "", "",
		fmt.Sprintf("avg %s max %s", x2(sum/n), x2(maxSp)),
		fmt.Sprintf("avg %s", x2(sumH/n)))
	return tab, nil
}

// Figure14 compares the per-iteration energy of the static cache and
// ScratchPipe (cache 2%, as the headline comparison) across classes.
func Figure14(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 14: energy per iteration (J) -- static cache vs ScratchPipe",
		Columns: []string{"class", "static (J)", "scratchpipe (J)", "savings"},
	}
	pm := energy.Default()
	for _, class := range trace.Classes {
		env, err := newEnv(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		st, err := runEngine(env, cfg.Iters, buildStatic(0.02))
		if err != nil {
			return nil, err
		}
		sp, err := runEngine(env, cfg.Iters, buildScratchPipe(0.02, cfg.CoordOverlap))
		if err != nil {
			return nil, err
		}
		eSt := pm.IterationEnergy(st.IterTime, st.CPUBusy, st.GPUBusy, 1)
		eSp := pm.IterationEnergy(sp.IterTime, sp.CPUBusy, sp.GPUBusy, 1)
		tab.AddRow(class.String(),
			fmt.Sprintf("%.1f", eSt), fmt.Sprintf("%.1f", eSp), x2(eSt/eSp))
	}
	return tab, nil
}

// Figure15a sweeps the embedding vector dimension (64/128/256) and reports
// every design's speedup over the static cache at 2% capacity, as in the
// sensitivity study.
func Figure15a(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 15a: sensitivity to embedding dimension (speedup vs static, cache 2%)",
		Columns: []string{"class", "dim", "hybrid", "strawman", "scratchpipe"},
	}
	for _, class := range trace.Classes {
		for _, dim := range []int{64, 128, 256} {
			model := cfg.Model
			model.EmbeddingDim = dim
			if err := addSweepRow(tab, cfg, model, class, fmt.Sprintf("%d", dim)); err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}

// Figure15b sweeps the number of embedding-table lookups (1/20/50).
func Figure15b(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 15b: sensitivity to lookups per table (speedup vs static, cache 2%)",
		Columns: []string{"class", "lookups", "hybrid", "strawman", "scratchpipe"},
	}
	for _, class := range trace.Classes {
		for _, lk := range []int{1, 20, 50} {
			model := cfg.Model
			model.Lookups = lk
			if err := addSweepRow(tab, cfg, model, class, fmt.Sprintf("%d", lk)); err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}

func addSweepRow(tab *Table, cfg Config, model dlrm.Config, class trace.Class, label string) error {
	const frac = 0.02
	env, err := newEnv(cfg, model, class)
	if err != nil {
		return err
	}
	hybrid, err := runEngine(env, cfg.Iters, buildHybrid)
	if err != nil {
		return err
	}
	static, err := runEngine(env, cfg.Iters, buildStatic(frac))
	if err != nil {
		return err
	}
	sm, err := runEngine(env, cfg.Iters, buildStrawMan(frac))
	if err != nil {
		return err
	}
	sp, err := runEngine(env, cfg.Iters, buildScratchPipe(frac, cfg.CoordOverlap))
	if err != nil {
		return err
	}
	tab.AddRow(class.String(), label,
		x2(static.IterTime/hybrid.IterTime),
		x2(static.IterTime/sm.IterTime),
		x2(static.IterTime/sp.IterTime))
	return nil
}
