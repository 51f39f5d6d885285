// Command spbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	spbench [-experiment all|fig3|fig5|fig6|fig6classes|fig12a|fig12b|
//	         fig13|fig14|fig15a|fig15b|tablei|overhead|sensitivity|ablation|
//	         serving]
//	        [-iters N] [-quick] [-seed S] [-workers N] [-shards S]
//	        [-topology T] [-placement P] [-coord M] [-coord-overlap]
//	        [-reshard SPEC] [-fail PLAN] [-ckpt-interval N]
//	        [-serve] [-replicas R] [-router P] [-arrival SPEC]
//	        [-serve-fail PLAN] [-deadline MS] [-retry SPEC] [-hedge MS]
//	        [-admission SPEC] [-cpuprofile FILE] [-memprofile FILE]
//	spbench -json BENCH_hotpath.json [-quick] [-workers N] [-shards S]
//	        [-topology T] [-placement P] [-coord M] [-coord-overlap]
//	        [-reshard SPEC] [-fail PLAN] [-ckpt-interval N] [-note TEXT]
//	        [-serve] [-replicas R] [-router P] [-arrival SPEC]
//	        [-serve-fail PLAN] [-deadline MS] [-retry SPEC] [-hedge MS]
//	        [-admission SPEC]
//
// With -quick the paper-scale tables (10M rows) shrink 50x for smoke
// runs. That is not a faithful miniature: ScratchPipe's speedup factors
// are smaller than at paper scale, and the trend across locality classes
// runs the other way (ROADMAP.md, direction 11), so quote paper-scale
// runs for the paper's claims. -workers bounds the simulator's per-table parallelism
// (0 = GOMAXPROCS); -shards partitions each table's scratchpad control
// plane across socket shards (internal/shard); simulated results are
// identical at any worker and shard count.
//
// -topology places the shards on a platform graph ("single", "numa2",
// "pcie4", "cluster2x2", ...) and -placement picks the shard-to-node
// policy (stripe|range|loadaware): the cross-shard coordinator's traffic
// is then priced on the links the placement crosses. The default single
// topology co-locates everything at zero cost, so every table stays
// bit-identical to the unplaced tree. -coord selects the coordination
// protocol (exact|hier|approx): exact and hier produce identical tables
// (hier's batched, host-tiered polls only cut coordination rounds);
// approx trades some eviction divergence for zero stamp-sync traffic. -coord-overlap overlaps each ScratchPipe run's distributed
// coordination with the pipeline: a Plan known a cycle early to sweep
// prices its first poll round as hidden under the previous Collect
// (DESIGN.md §12). Plans and cache statistics stay bit-identical; only
// the critical coordination share charged to the Plan stage — and with
// it the modeled wall — shrinks. With -json the entry additionally
// records coord_wall_seconds (the measured message-plane makespan) and
// the overlap_* outcome counters.
//
// -reshard schedules elastic shard-count transitions mid-run for the
// dynamic-cache engines ("200:4,500:8" = step to 4 shards at iteration
// 200 and 8 at 500; "load:8" grows toward 8 shards on observed
// query-mass skew): live scratchpad state migrates between Plans with
// the moved bytes priced on -topology's links. Plans and cache
// statistics are preserved exactly (a same-S schedule leaves every
// table bit-identical); timing columns can shift once the new shard
// count pays cross-node coordination, exactly as a static -shards
// change would.
//
// -fail injects a deterministic fault schedule into every data point's
// dynamic-cache runs ("host1@5" kills host 1 before iteration 5;
// link/degrade/agg events follow the same grammar): dead hosts'
// shards evacuate to survivors, partitions degrade coordination to
// approx until heal, and the reports price the outage into
// Downtime/RecoveryTime/Availability. -ckpt-interval prices a periodic
// scratchpad checkpoint flush every N iterations; with -fail, host
// deaths then restore at-risk residency from the last flush instead of
// repricing it as cold misses. The empty plan changes nothing.
//
// -serve configures the online serving simulation (internal/serve):
// -replicas scratchpad-holding workers answer an open-loop query stream
// (-arrival) behind the -router policy. The serving experiment sweeps
// the full routing frontier; with -json the measurement records the
// serving family's deterministic throughput/hit-rate/p99 instead of the
// training sweep. -serve-fail injects replica/host kills into the
// serving run ("replica1@0.4" kills replica 1 at t=0.4s; "host1@1"
// takes down every replica placed on host 1), and -deadline/-retry/
// -hedge/-admission configure the client and admission resilience
// policies; the -json entry then also records availability, goodput,
// and the retried/hedged/shed/timed-out counters.
//
// With -json the command runs the hot-path benchmark (one Figure 13
// sweep) instead of printing tables, appends the wall-clock and allocator
// measurements to the given JSON history file, and prints the new entry —
// the mechanism future PRs use to track the simulator's perf trajectory.
//
// -cpuprofile and -memprofile write runtime/pprof CPU and allocation
// profiles of the run (read them with `go tool pprof -top FILE`); the
// printed output is the same with or without them.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/prof"
)

var experiments = map[string]func(bench.Config) (*bench.Table, error){
	"fig3":        bench.Figure3,
	"fig5":        bench.Figure5,
	"fig6":        bench.Figure6,
	"fig6classes": bench.Figure6Classes,
	"fig12a":      bench.Figure12a,
	"fig12b":      bench.Figure12b,
	"fig13":       bench.Figure13,
	"fig14":       bench.Figure14,
	"fig15a":      bench.Figure15a,
	"fig15b":      bench.Figure15b,
	"tablei":      bench.TableI,
	"overhead":    bench.OverheadStudy,
	"sensitivity": bench.SensitivityExtra,
	"ablation":    bench.AblationWindows,
	"serving":     bench.ServingFrontier,
}

func main() {
	cfg := bench.Default()
	exp := flag.String("experiment", "all", "experiment to run (all or one of fig3..ablation)")
	iters := flag.Int("iters", 0, "measured iterations per data point (0 = default)")
	quick := flag.Bool("quick", false, "use the 50x scaled-down configuration")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	jsonPath := flag.String("json", "", "run the hot-path benchmark and append the measurement to this JSON history file")
	note := flag.String("note", "", "free-form note recorded with the -json measurement")
	finish := cfg.RegisterFlags(flag.CommandLine)
	startProfiles := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	configName := "full"
	if *quick {
		q := bench.Quick()
		cfg.Model, cfg.Iters, configName = q.Model, q.Iters, "quick"
	}
	if *iters > 0 {
		cfg.Iters = *iters
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(2)
	}

	stopProfiles, err := startProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			os.Exit(1)
		}
	}()

	if *jsonPath != "" {
		res, err := bench.HotPath(cfg, configName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			os.Exit(1)
		}
		res.Note = *note
		if _, err := bench.AppendHotPath(*jsonPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			os.Exit(1)
		}
		if res.Serve != "" {
			batchInfo := ""
			if res.ServeBatch != "" {
				batchInfo = fmt.Sprintf(", batch cap %s: %d batches (max %d)",
					res.ServeBatch, res.ServeBatches, res.ServeMaxBatch)
			}
			resil := ""
			if res.ServeFaults != "" || res.ServeResilience != "" {
				resil = fmt.Sprintf(", faults %q + %q: availability %.4f, goodput %.0f q/s, %d retried, %d hedged, %d shed, %d timed out",
					res.ServeFaults, res.ServeResilience, res.ServeAvailability, res.ServeGoodput,
					res.ServeRetried, res.ServeHedged, res.ServeShed, res.ServeTimedOut)
			}
			fmt.Printf("hotpath serving (%s, %s router, %d replicas, arrival %s): %.2fs wall, %.0f q/s, %.1f%% hit rate, p99 %.3f ms, %d drops%s%s -> %s\n",
				configName, res.Serve, res.ServeReplicas, res.ServeArrival,
				res.WallSeconds, res.ServeThroughput, res.ServeHitRate*100, res.ServeP99Ms, res.ServeDrops, batchInfo, resil, *jsonPath)
			return
		}
		shape := ""
		if res.Topology != "" {
			shape = fmt.Sprintf(", topology=%s, placement=%s, coord=%s", res.Topology, res.Placement, cfg.Coord)
		}
		coordLine := ""
		if res.CoordRounds > 0 {
			coordLine = fmt.Sprintf(", %d coord rounds (%.1f ms modeled, %.1f ms measured)",
				res.CoordRounds, res.CoordSeconds*1e3, res.CoordWallSeconds*1e3)
		}
		if res.CoordOverlap {
			coordLine += fmt.Sprintf(", overlap %d/%d adopted (%d rolled back, sim wall %.1f ms)",
				res.OverlapAdopted, res.OverlapSpeculated, res.OverlapRolledBack, res.SimWallSeconds*1e3)
		}
		if res.Reshard != "" {
			coordLine += fmt.Sprintf(", reshard %s (%.1f ms migration)", res.Reshard, res.MigrationSeconds*1e3)
		}
		if res.Faults != "" {
			coordLine += fmt.Sprintf(", faults %s (%.1f ms down, %.1f ms recovery)", res.Faults, res.DowntimeSeconds*1e3, res.RecoverySeconds*1e3)
		}
		fmt.Printf("hotpath (%s, workers=%d, shards=%d%s): %.2fs wall, %d allocs, %.1f MB allocated, sp-vs-static avg %.2fx%s -> %s\n",
			configName, res.Workers, res.Shards, shape, res.WallSeconds, res.Allocs, float64(res.AllocBytes)/1e6,
			res.ScratchPipeSpeedupAvg, coordLine, *jsonPath)
		return
	}

	if *exp == "all" {
		tables, err := bench.AllExperiments(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		return
	}
	run, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "spbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	t, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
	fmt.Println(t)
}
