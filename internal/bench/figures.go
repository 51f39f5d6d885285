package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/trace"
)

// Figure3 characterizes the four dataset presets the way Figure 3 plots
// them: the (sorted) access-count concentration of embedding-table rows.
// For each preset table we report the share of accesses captured by the
// hottest fractions of rows, both analytically (the fitted CDF) and
// empirically (sampled trace), plus the fraction of rows ever touched.
func Figure3(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 3: sorted access concentration of RecSys datasets",
		Columns: []string{"dataset", "table", "top0.1%", "top2%", "top10%", "top30%", "touched", "top2%(sampled)"},
	}
	const samples = 400_000
	for _, name := range trace.DatasetNames {
		ds, err := trace.NewDataset(name, cfg.Model.RowsPerTable)
		if err != nil {
			return nil, err
		}
		for _, dt := range ds.Tables {
			h, err := trace.CollectHistogram(dt.Dist, samples, 1000, cfg.Seed)
			if err != nil {
				return nil, err
			}
			tab.AddRow(name, dt.Name,
				pct(dt.Dist.CDF(0.001)),
				pct(dt.Dist.CDF(0.02)),
				pct(dt.Dist.CDF(0.10)),
				pct(dt.Dist.CDF(0.30)),
				pct(float64(h.UniqueRows)/float64(h.Rows)),
				pct(h.TopShare(0.02)),
			)
		}
	}
	return tab, nil
}

// Figure5 reproduces the motivation breakdown: training time split into
// CPU embedding forward, CPU embedding backward, and GPU time for the
// hybrid baseline and static caches of 2% and 10%, across the four
// locality classes.
func Figure5(cfg Config) (*Table, error) {
	tab := &Table{
		Title:   "Figure 5: training time breakdown (ms) -- hybrid vs static cache",
		Columns: []string{"system", "class", "cpu-emb-fwd", "cpu-emb-bwd", "gpu", "total", "cpu-share"},
	}
	systems := []struct {
		label string
		frac  float64 // <0 means no cache (hybrid)
	}{
		{"Hybrid CPU-GPU", -1},
		{"Static cache (2%)", 0.02},
		{"Static cache (10%)", 0.10},
	}
	// Run class-major (one environment per class), print system-major.
	reps := make([][]*engine.Report, len(systems))
	for _, class := range trace.Classes {
		env, err := newEnv(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		for i, s := range systems {
			build := buildHybrid
			if s.frac >= 0 {
				build = buildStatic(s.frac)
			}
			rep, err := runEngine(env, cfg.Iters, build)
			if err != nil {
				return nil, err
			}
			reps[i] = append(reps[i], rep)
		}
	}
	for i, s := range systems {
		for c, class := range trace.Classes {
			rep := reps[i][c]
			cpu := rep.CPUEmbFwd + rep.CPUEmbBwd
			tab.AddRow(s.label, class.String(),
				ms(rep.CPUEmbFwd), ms(rep.CPUEmbBwd), ms(rep.GPUTime),
				ms(rep.IterTime), pct(cpu/rep.IterTime))
		}
	}
	return tab, nil
}

// Figure6 reproduces the static-cache hit-rate curves: hit rate as a
// function of cache size (fraction of the table pinned in GPU memory) for
// every table of the four dataset presets.
func Figure6(cfg Config) (*Table, error) {
	fracs := []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.65, 0.80, 1.0}
	cols := []string{"dataset", "table"}
	for _, f := range fracs {
		cols = append(cols, fmt.Sprintf("%g%%", f*100))
	}
	tab := &Table{
		Title:   "Figure 6: static GPU embedding cache hit rate vs cache size",
		Columns: cols,
	}
	for _, name := range trace.DatasetNames {
		ds, err := trace.NewDataset(name, cfg.Model.RowsPerTable)
		if err != nil {
			return nil, err
		}
		for _, dt := range ds.Tables {
			row := []string{name, dt.Name}
			for _, hr := range trace.HitRateCurve(dt.Dist, fracs) {
				row = append(row, pct(hr))
			}
			tab.AddRow(row...)
		}
	}
	return tab, nil
}

// Figure6Classes prints the same curve for the synthetic locality classes
// the performance experiments use, making the "low locality needs >65% of
// the table cached for >90% hits" observation directly visible.
func Figure6Classes(cfg Config) (*Table, error) {
	fracs := []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.65, 0.80, 1.0}
	cols := []string{"class"}
	for _, f := range fracs {
		cols = append(cols, fmt.Sprintf("%g%%", f*100))
	}
	tab := &Table{
		Title:   "Figure 6 (synthetic classes): static cache hit rate vs cache size",
		Columns: cols,
	}
	for _, class := range trace.Classes {
		d, err := trace.NewClassDistribution(class, cfg.Model.RowsPerTable)
		if err != nil {
			return nil, err
		}
		row := []string{class.String()}
		for _, hr := range trace.HitRateCurve(d, fracs) {
			row = append(row, pct(hr))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}
