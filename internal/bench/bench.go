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
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Config parameterizes a benchmark run.
type Config struct {
	// Model is the RecSys configuration every experiment starts from.
	Model dlrm.Config
	// System is the hardware model.
	System hw.System
	// Iters is the number of measured training iterations per data
	// point (pipeline fill cycles are excluded automatically).
	Iters int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the per-table fan-out parallelism of every engine
	// (0 = GOMAXPROCS, 1 = serial). Simulated results are bit-identical
	// at any worker count.
	Workers int
	// Shards partitions every table's scratchpad control plane across
	// socket shards (0/1 = unsharded; see internal/shard). Simulated
	// results are identical at any shard count.
	Shards int
	// Topology places the shards on a platform graph and Placement
	// picks the shard-to-node policy (stripe/range/loadaware): the
	// shard coordinator's traffic is then priced on the crossed links.
	// nil topology co-locates everything at zero cost, keeping every
	// figure bit-identical to the unplaced tree.
	Topology  *hw.Topology
	Placement hw.PlacementPolicy
	// Coord selects the cross-shard coordination protocol
	// (exact|batched|hier|approx; see internal/shard). Exact, batched,
	// and hier produce identical simulated tables; approx may diverge
	// and the reports carry the measured divergence.
	Coord shard.CoordMode
	// CoordOverlap overlaps each ScratchPipe run's distributed
	// coordination with the pipeline (engine.ScratchPipeOptions
	// .CoordOverlap): plans and cache statistics are unchanged, the
	// critical coordination share charged to [Plan] shrinks. A no-op
	// for every other engine and under co-located placement.
	CoordOverlap bool
	// Reshard schedules run-time shard-count transitions for the
	// dynamic-cache engines mid-run (engine.ReshardSpec): every data
	// point's strawman and ScratchPipe runs then migrate their live
	// scratchpad state per the schedule, with the migrated bytes priced
	// on Topology. Plans and cache statistics are preserved exactly (a
	// same-S schedule leaves every table bit-identical); timing columns
	// shift only as far as the new shard count's cross-node
	// coordination does, exactly as a static Shards change would.
	Reshard engine.ReshardSpec
	// Faults schedules deterministic fault injection for every data
	// point's dynamic-cache runs (hw.FaultPlan, the -fail grammar):
	// host deaths evacuate shards mid-sweep, link faults degrade
	// coordination, aggregator losses re-elect — all priced into the
	// reports' Downtime/RecoveryTime/Availability. The zero plan
	// changes nothing.
	Faults hw.FaultPlan
	// CkptInterval prices a periodic scratchpad checkpoint flush every
	// this many iterations (0 disables); with faults it buys
	// checkpoint-restored residency at the flush cost.
	CkptInterval int
	// Serve configures the online serving simulation (internal/serve):
	// replicas, router policy, arrival process. The zero value keeps
	// serving off; active options power the ServingFrontier experiment
	// and the hotpath serving family.
	Serve serve.Options
}

// Default returns the paper's §V methodology configuration. Iters must
// exceed the pipeline depth (6) for ScratchPipe to reach steady state;
// caches are prewarmed so a modest window suffices.
func Default() Config {
	return Config{
		Model:  dlrm.DefaultConfig(),
		System: hw.DefaultSystem(),
		Iters:  16,
		Seed:   42,
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
// stream from batch 0, generated once, and the dynamic engines reset the
// scratchpads the previous fork retired instead of rebuilding them.
func newEnv(cfg Config, model dlrm.Config, class trace.Class) (*engine.Env, error) {
	return engine.NewEnv(engine.EnvConfig{
		Model:        model,
		System:       cfg.System,
		Class:        class,
		Seed:         cfg.Seed,
		Functional:   false,
		Workers:      cfg.Workers,
		Shards:       cfg.Shards,
		Topology:     cfg.Topology,
		Placement:    cfg.Placement,
		Coord:        cfg.Coord,
		Reshard:      cfg.Reshard,
		Faults:       cfg.Faults,
		CkptInterval: cfg.CkptInterval,
		Serve:        cfg.Serve,
	})
}

// runEngine runs n iterations of an engine built over a new fork of env,
// then closes the fork. The report equals that of the same engine over a
// fresh newEnv (TestForkedSweepMatchesFreshEnvs).
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

func buildScratchPipe(frac float64, overlap bool) func(*engine.Env) (engine.Engine, error) {
	return func(env *engine.Env) (engine.Engine, error) {
		return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: frac, CoordOverlap: overlap})
	}
}

func buildMultiGPU(env *engine.Env) (engine.Engine, error) { return engine.NewMultiGPU(env) }
