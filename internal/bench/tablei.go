package bench

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/trace"
)

// TableI reproduces the training-cost comparison: a single-GPU ScratchPipe
// on p3.2xlarge versus an 8-GPU model-parallel system on p3.16xlarge,
// costed over one million training iterations.
func TableI(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Table I: training cost -- ScratchPipe vs 8-GPU multi-GPU",
		Columns: []string{"dataset", "system", "instance", "price/hr", "iter time (ms)", "1M-iter cost", "cost ratio"},
	}
	var sw sweep
	for _, class := range trace.Classes {
		env, err := sw.env(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		sp, err := runEngine(env, cfg.Iters, buildScratchPipe(0.02))
		if err != nil {
			return nil, err
		}
		mg, err := runEngine(env, cfg.Iters, buildMultiGPU)
		if err != nil {
			return nil, err
		}
		cSp := cost.MillionIterCost(cost.P32xlarge, sp.IterTime)
		cMg := cost.MillionIterCost(cost.P316xlarge, mg.IterTime)
		tab.AddRow(class.String(), "ScratchPipe", cost.P32xlarge.Name,
			cost.FormatUSD(cost.P32xlarge.PricePerHour), ms(sp.IterTime), cost.FormatUSD(cSp), "")
		tab.AddRow(class.String(), "8 GPU", cost.P316xlarge.Name,
			cost.FormatUSD(cost.P316xlarge.PricePerHour), ms(mg.IterTime), cost.FormatUSD(cMg),
			x2(cMg/cSp))
	}
	return tab, nil
}

// OverheadStudy reproduces §VI-D: the GPU memory the scratchpad must
// provision. It reports the worst-case reserve sizing formula (the paper's
// 960 MB for six in-flight mini-batches) and the reserve actually touched
// during a simulated run, which is far smaller because window IDs overlap.
func OverheadStudy(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "SecVI-D: scratchpad provisioning overhead",
		Columns: []string{"class", "cache", "nominal (MB)", "worst-case hold (MB)", "reserve peak (MB)", "hit-map est (MB)"},
	}
	model := cfg.Model
	rowBytes := float64(model.EmbeddingDim) * 4
	perBatch := model.BatchSize * model.Lookups // per table
	window := 6
	worstRows := float64(window * perBatch * model.NumTables)
	var sw sweep
	fracs := []float64{0.02, 0.10}
	for _, class := range trace.Classes {
		env, err := sw.env(cfg, model, class)
		if err != nil {
			return nil, err
		}
		rows := make([][]string, len(fracs))
		for i, frac := range slices.Backward(fracs) {
			rep, err := runEngine(env, cfg.Iters, buildScratchPipe(frac))
			if err != nil {
				return nil, err
			}
			nominal := frac * float64(model.RowsPerTable) * float64(model.NumTables) * rowBytes
			// Hit-Map: ~24 B per cached entry (key, value, bucket
			// overhead), one entry per nominal slot.
			hitMap := frac * float64(model.RowsPerTable) * float64(model.NumTables) * 24
			rows[i] = []string{class.String(), fmt.Sprintf("%g%%", frac*100),
				fmt.Sprintf("%.0f", nominal/1e6),
				fmt.Sprintf("%.0f", worstRows*rowBytes/1e6),
				fmt.Sprintf("%.1f", float64(rep.ReservePeak)*rowBytes/1e6),
				fmt.Sprintf("%.0f", hitMap/1e6)}
		}
		tab.Rows = append(tab.Rows, rows...)
	}
	return tab, nil
}

// SensitivityExtra covers the §VI-E studies the paper summarizes in prose:
// replacement policy (LRU/LFU/Random), batch size, and an MLP-intensive
// model variant.
func SensitivityExtra(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "SecVI-E: replacement policy, batch size, MLP-intensive sensitivity",
		Columns: []string{"study", "variant", "class", "iter (ms)", "hit rate"},
	}
	var sw sweep
	// Replacement policy. The sharded control plane is LRU-specific (the
	// cross-shard eviction coordinator merges LRU recency orders), so
	// the non-LRU sensitivity points run unsharded at any -shards
	// setting — their results never depend on the shard count anyway.
	for _, pol := range []cache.PolicyKind{cache.LRU, cache.LFU, cache.RandomPolicy} {
		polCfg := cfg
		if pol != cache.LRU {
			polCfg.Shards = 1
		}
		for _, class := range []trace.Class{trace.Low, trace.High} {
			env, err := sw.env(polCfg, cfg.Model, class)
			if err != nil {
				return nil, err
			}
			rep, err := runEngine(env, cfg.Iters, func(env *engine.Env) (engine.Engine, error) {
				return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: 0.02, Policy: pol})
			})
			if err != nil {
				return nil, err
			}
			tab.AddRow("policy", string(pol), class.String(), ms(rep.IterTime), pct(rep.HitRate()))
		}
	}
	// Batch size.
	for _, bs := range []int{512, 2048, 8192} {
		model := cfg.Model
		model.BatchSize = bs
		env, err := sw.env(cfg, model, trace.Medium)
		if err != nil {
			return nil, err
		}
		rep, err := runEngine(env, cfg.Iters, buildScratchPipe(0.02))
		if err != nil {
			return nil, err
		}
		tab.AddRow("batch-size", fmt.Sprintf("%d", bs), "Medium", ms(rep.IterTime), pct(rep.HitRate()))
	}
	// MLP-intensive variant: deeper/wider top MLP, single lookup.
	model := cfg.Model
	model.TopHidden = []int{4096, 4096, 2048, 1024}
	model.Lookups = 2
	for _, class := range []trace.Class{trace.Low, trace.High} {
		env, err := sw.env(cfg, model, class)
		if err != nil {
			return nil, err
		}
		sp, err := runEngine(env, cfg.Iters, buildScratchPipe(0.02))
		if err != nil {
			return nil, err
		}
		st, err := runEngine(env, cfg.Iters, buildStatic(0.02))
		if err != nil {
			return nil, err
		}
		tab.AddRow("mlp-intensive", "speedup "+x2(st.IterTime/sp.IterTime), class.String(), ms(sp.IterTime), pct(sp.HitRate()))
	}
	return tab, nil
}

// AblationWindows quantifies the design choices DESIGN.md calls out: what
// the future window and the pipeline itself buy. It compares ScratchPipe
// against (a) the straw-man (no pipelining) and (b) the degenerate
// single-stage windows, reporting iteration time and reserve pressure.
func AblationWindows(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Ablation: pipelining and window sizing",
		Columns: []string{"variant", "class", "iter (ms)", "reserve peak (rows)", "notes"},
	}
	var sw sweep
	for _, class := range []trace.Class{trace.Random, trace.High} {
		env, err := sw.env(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		sm, err := runEngine(env, cfg.Iters, buildStrawMan(0.02))
		if err != nil {
			return nil, err
		}
		tab.AddRow("strawman (no pipeline)", class.String(), ms(sm.IterTime), fmt.Sprintf("%d", sm.ReservePeak), "stage sum")
		sp, err := runEngine(env, cfg.Iters, buildScratchPipe(0.02))
		if err != nil {
			return nil, err
		}
		tab.AddRow("scratchpipe (3past/2future)", class.String(), ms(sp.IterTime), fmt.Sprintf("%d", sp.ReservePeak), "stage max")
		spWide, err := runEngine(env, cfg.Iters, func(env *engine.Env) (engine.Engine, error) {
			return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: 0.02, FutureWindow: 4})
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow("scratchpipe (future=4)", class.String(), ms(spWide.IterTime), fmt.Sprintf("%d", spWide.ReservePeak), "wider pin set")
		for _, la := range []int{8, 16} {
			la := la
			spDeep, err := runEngine(env, cfg.Iters, func(env *engine.Env) (engine.Engine, error) {
				return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: 0.02, EvictionLookahead: la})
			})
			if err != nil {
				return nil, err
			}
			tab.AddRow(fmt.Sprintf("scratchpipe (lookahead=%d)", la), class.String(),
				ms(spDeep.IterTime), fmt.Sprintf("%d", spDeep.ReservePeak),
				fmt.Sprintf("fills %d (vs %d)", spDeep.Fills, sp.Fills))
		}
		spCont, err := runEngine(env, cfg.Iters, func(env *engine.Env) (engine.Engine, error) {
			return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: 0.02, CPUContention: true})
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow("scratchpipe (cpu contention)", class.String(),
			ms(spCont.IterTime), fmt.Sprintf("%d", spCont.ReservePeak), "serialized CPU stages")
		spMG, err := runEngine(env, cfg.Iters, func(env *engine.Env) (engine.Engine, error) {
			return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: 0.02, NumGPUs: 8})
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow("scratchpipe (8 GPUs, SecVI-G)", class.String(),
			ms(spMG.IterTime), fmt.Sprintf("%d", spMG.ReservePeak),
			fmt.Sprintf("%.2fx over 1 GPU", sp.IterTime/spMG.IterTime))
	}
	return tab, nil
}

// AllExperiments runs every experiment and returns the rendered tables in
// paper order.
func AllExperiments(cfg Config) ([]*Table, error) {
	runners := []func(Config) (*Table, error){
		Figure3, Figure5, Figure6, Figure6Classes,
		Figure12a, Figure12b, Figure13, Figure14,
		Figure15a, Figure15b, TableI, OverheadStudy,
		SensitivityExtra, AblationWindows,
	}
	var out []*Table
	for _, r := range runners {
		t, err := r(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
