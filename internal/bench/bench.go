// Package bench regenerates every table and figure of the paper's
// evaluation section (§VI). Each runner builds the relevant engines in
// metadata mode at the paper-scale default configuration (8 tables x 10M
// rows x 128-dim, batch 2048, 20 lookups), simulates a window of training
// iterations, and prints the same rows/series the paper plots.
//
// Absolute times come from the calibrated analytic model in internal/hw;
// the claims to check are the *shapes*: who wins, by what factor, and
// where the crossovers fall. DESIGN.md records the calibration rationale
// behind the absolute numbers.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/dlrm"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/trace"
)

// Config parameterizes a benchmark run: the run spec every data point's
// environment starts from, and the iteration count. Model is the RecSys
// configuration every experiment starts from; each data point sets its
// own Model, Class and Functional (metadata mode). Every other knob
// applies to every data point: the scale-out knobs (Workers, Shards,
// Topology, Placement, Coord, CoordOverlap, Reshard, Faults,
// CkptInterval) to each dynamic-cache run, and Serve to the
// ServingFrontier experiment and the hotpath serving family.
type Config struct {
	engine.EnvConfig
	// Iters is the number of measured training iterations per data
	// point (pipeline fill cycles are excluded automatically).
	Iters int
}

// Default returns the paper's §V methodology configuration. Iters must
// exceed the pipeline depth (6) for ScratchPipe to reach steady state;
// caches are prewarmed so a modest window suffices.
func Default() Config {
	return Config{
		EnvConfig: engine.EnvConfig{Model: dlrm.DefaultConfig(), System: hw.DefaultSystem(), Seed: 42},
		Iters:     16,
	}
}

// Quick returns a scaled-down configuration for fast smoke tests: the
// model keeps its shape ratios (cache % semantics, lookup structure) but
// tables shrink 50x.
func Quick() Config {
	c := Default()
	c.Model.RowsPerTable = 200_000
	c.Model.BatchSize = 256
	c.Iters = 8
	return c
}

// CacheFracs is the cache-size sweep of the evaluation (2-10%).
var CacheFracs = []float64{0.02, 0.04, 0.06, 0.08, 0.10}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// ms formats seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.2f", sec*1e3) }

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// x2 formats a speedup factor.
func x2(x float64) string { return fmt.Sprintf("%.2fx", x) }

// newEnv builds the metadata-mode environment of one (config, model,
// class) point of a sweep. The sweep runs every engine of the point on
// its own fork of it (runEngine), so all of them see the same batch
// stream from batch 0, generated once, and replay one prewarm record per
// table; a sweep's envs come from one sweep value, so the dynamic
// engines of every env reset the scratchpads an earlier fork retired
// instead of rebuilding them.
func newEnv(cfg Config, model dlrm.Config, class trace.Class) (*engine.Env, error) {
	env := cfg.EnvConfig
	env.Model, env.Class, env.Functional = model, class, false
	return engine.NewEnv(env)
}

// A sweep builds the envs of one bench sweep over one spare pool of
// retired managers, so the sweep allocates each table's planner once;
// a sweep over cache fractions runs its largest first, which sizes every
// buffer the smaller points reuse, and prints its points in ascending
// order.
type sweep struct{ last *engine.Env }

// env is newEnv for the sweep's next env, which shares the pool of the
// env before it.
func (s *sweep) env(cfg Config, model dlrm.Config, class trace.Class) (*engine.Env, error) {
	env, err := newEnv(cfg, model, class)
	if err != nil {
		return nil, err
	}
	if s.last != nil {
		env.ShareSpares(s.last)
	}
	s.last = env
	return env, nil
}

// runEngine runs n iterations of an engine built over a new fork of env,
// then closes the fork, retiring its managers to the sweep's spare pool.
// The report equals that of the same engine over a fresh newEnv
// (TestForkedSweepMatchesFreshEnvs).
func runEngine(env *engine.Env, n int, build func(*engine.Env) (engine.Engine, error)) (*engine.Report, error) {
	child, err := env.Fork()
	if err != nil {
		return nil, err
	}
	defer child.Close()
	eng, err := build(child)
	if err != nil {
		return nil, err
	}
	return eng.Run(n)
}

// Builders for the four cache design points of Figure 13.
func buildHybrid(env *engine.Env) (engine.Engine, error) { return engine.NewHybrid(env), nil }

func buildStatic(frac float64) func(*engine.Env) (engine.Engine, error) {
	return func(env *engine.Env) (engine.Engine, error) { return engine.NewStaticCache(env, frac) }
}

func buildStrawMan(frac float64) func(*engine.Env) (engine.Engine, error) {
	return func(env *engine.Env) (engine.Engine, error) { return engine.NewStrawMan(env, frac, "lru") }
}

func buildScratchPipe(frac float64) func(*engine.Env) (engine.Engine, error) {
	return func(env *engine.Env) (engine.Engine, error) {
		return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: frac})
	}
}

func buildMultiGPU(env *engine.Env) (engine.Engine, error) { return engine.NewMultiGPU(env) }
