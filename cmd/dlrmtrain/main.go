// Command dlrmtrain trains a DLRM end-to-end with a selectable training
// engine, printing the loss curve and the engine's simulated performance.
//
// Usage:
//
//	dlrmtrain -engine scratchpipe -class High -iters 50 -rows 100000
//	dlrmtrain -engine hybrid -functional=false -iters 20   # timing only
//	dlrmtrain -shards 4 -topology cluster2x2 -placement loadaware
//	dlrmtrain -shards 4 -topology cluster2x2 -coord hier   # batched host-tier coordination
//	dlrmtrain -shards 4 -topology cluster2x2 -coord approx  # quantized recency, no stamp sync
//	dlrmtrain -shards 4 -topology cluster2x2 -coord hier -coord-overlap  # hide each Plan's first poll round
//	dlrmtrain -shards 1 -topology cluster2x2 -reshard 20:4 -coord hier  # elastic scale-out mid-run
//	dlrmtrain -topology numa4 -reshard load:4 -class High   # load-triggered growth
//	dlrmtrain -serve -replicas 4 -router hitaware -arrival poisson:2000 -class High
//	dlrmtrain -serve -replicas 8 -router leastloaded -arrival flash:2000:8 -topology cluster2x2
//	dlrmtrain -serve -serve-fail replica1@0.4 -retry 3:100 -deadline 20   # kill + failover
//	dlrmtrain -serve -arrival flash:5000:10 -admission cheapest:0.5:degrade
//
// With -serve the command runs the online serving simulation instead of
// training: -replicas scratchpad-holding workers answer an open-loop
// query stream (-arrival) behind the -router policy, and the run prints
// throughput, hit rate, and latency percentiles.
//
// -cpuprofile and -memprofile write runtime/pprof CPU and allocation
// profiles of the run; the printed output is the same without them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/prof"
	"repro/scratchpipe"
)

// fail prints a one-line usage error and exits with status 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dlrmtrain: "+format+"\n", args...)
	os.Exit(2)
}

// runServe plays the online serving simulation and prints the report.
func runServe(cfg scratchpipe.Config) {
	tr, err := scratchpipe.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := tr.Serve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on %s locality: %d replicas behind %s router, arrival %s\n",
		cfg.Class, rep.Replicas, rep.Router, cfg.Serve.Arrival.String())
	fmt.Printf("\n%d queries offered over %.2f s (%.0f q/s realized)\n",
		rep.Offered, rep.Duration, rep.OfferedRate)
	fmt.Printf("  throughput:      %.0f q/s (%d served, %d dropped)\n",
		rep.Throughput, rep.Served, rep.Drops)
	fmt.Printf("  cache hit rate:  %.1f%% (%d fills, %d evictions)\n",
		rep.HitRate()*100, rep.Fills, rep.Evictions)
	fmt.Printf("  latency:         p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		rep.Latency.P50*1e3, rep.Latency.P95*1e3, rep.Latency.P99*1e3, rep.Latency.Max*1e3)
	// Batching section: keyed off the option, so unbatched runs print
	// byte-identically to the pre-batching serving tree.
	if cfg.Serve.Batch.Enabled() {
		occ := 0.0
		if rep.Batches > 0 {
			occ = float64(rep.BatchedQueries) / float64(rep.Batches)
		}
		fmt.Printf("  batching:        cap %d, %d batches launched, avg %.2f queries/batch (max %d)\n",
			cfg.Serve.Batch.Cap, rep.Batches, occ, rep.MaxBatch)
	}
	if rep.CrossNode > 0 {
		fmt.Printf("  routing links:   %d cross-node queries (%d cross-host), %.3f ms link time\n",
			rep.CrossNode, rep.CrossHost, rep.LinkTime*1e3)
	}
	if rep.CoordTime > 0 {
		fmt.Printf("  shard coordination: %.3f ms total across queries\n", rep.CoordTime*1e3)
	}
	// Resilience section: keyed off the options, not the report, so
	// zero-fault runs without the new flags print byte-identically to
	// the pre-fault serving tree.
	resilient := cfg.Serve.Resilient()
	if resilient {
		fmt.Printf("  resilience:      availability %.4f%%, goodput %.0f q/s, drop rate %.2f%%\n",
			rep.Availability*100, rep.Goodput, rep.DropRate()*100)
		fmt.Printf("    outcomes: %d timed out, %d retried, %d hedged, %d shed, %d degraded\n",
			rep.TimedOut, rep.Retried, rep.Hedged, rep.Shed, rep.Degraded)
		if rep.DegradedLatency.Count > 0 {
			fmt.Printf("    degraded latency: p50 %.3f ms, p99 %.3f ms over %d CPU-path completions (GPU-path percentiles above exclude them)\n",
				rep.DegradedLatency.P50*1e3, rep.DegradedLatency.P99*1e3, rep.DegradedLatency.Count)
		}
		if rep.RewarmFills > 0 {
			fmt.Printf("    recovery: %d re-warm fills, %.3f ms re-warm stall\n",
				rep.RewarmFills, rep.RewarmTime*1e3)
		}
	}
	for i, w := range rep.Workers {
		if resilient {
			fmt.Printf("  worker %d (node %d): %d served, %d dropped (%.1f%% drop rate), hit rate %.1f%%, peak queue %d, downtime %.0f ms\n",
				i, w.Node, w.Served, w.Drops, w.DropRate()*100, w.HitRate()*100, w.PeakDepth, w.Downtime*1e3)
			continue
		}
		fmt.Printf("  worker %d (node %d): %d served, %d dropped, hit rate %.1f%%, peak queue %d\n",
			i, w.Node, w.Served, w.Drops, w.HitRate()*100, w.PeakDepth)
	}
}

func main() {
	cfg := scratchpipe.Config{EnvConfig: scratchpipe.EnvConfig{
		Model:  scratchpipe.DefaultModel(),
		System: scratchpipe.DefaultSystem(),
		// -arrival defaults to poisson:2000.
		Serve: scratchpipe.ServeOptions{Arrival: scratchpipe.ArrivalSpec{Shape: "poisson", Rate: 2000}},
	}}
	cfg.Model.BottomHidden = []int{64, 32}
	cfg.Model.TopHidden = []int{128, 64}
	flag.StringVar((*string)(&cfg.Engine), "engine", "scratchpipe", "hybrid|static|strawman|scratchpipe|multigpu")
	classFlag := flag.String("class", "Medium", "locality class: Random|Low|Medium|High")
	iters := flag.Int("iters", 30, "training iterations")
	flag.Int64Var(&cfg.Model.RowsPerTable, "rows", 100_000, "rows per embedding table")
	flag.IntVar(&cfg.Model.NumTables, "tables", 4, "number of embedding tables")
	flag.IntVar(&cfg.Model.EmbeddingDim, "dim", 32, "embedding dimension")
	flag.IntVar(&cfg.Model.Lookups, "lookups", 8, "lookups per table")
	flag.IntVar(&cfg.Model.BatchSize, "batch", 256, "mini-batch size")
	flag.Float64Var(&cfg.CacheFrac, "cache", 0.05, "GPU cache fraction")
	flag.StringVar((*string)(&cfg.Policy), "policy", "lru", "replacement policy: lru|lfu|random")
	flag.BoolVar(&cfg.Parallel, "parallel", false, "run pipeline stages in goroutines")
	flag.BoolVar(&cfg.Functional, "functional", true, "execute real float32 training")
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	finish := cfg.RegisterFlags(flag.CommandLine)
	startProfiles := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := finish(); err != nil {
		fail("%v", err)
	}
	// The checks on dlrmtrain's own flags: the replacement policy, and
	// the knobs that only some engines read.
	switch cfg.Policy {
	case scratchpipe.LRU, scratchpipe.LFU, scratchpipe.RandomPolicy:
	default:
		fail("-policy %q: want lru, lfu, or random", cfg.Policy)
	}
	if cfg.Shards > 1 && cfg.Policy != scratchpipe.LRU {
		fail("-shards %d requires -policy lru (the cross-shard eviction coordinator merges LRU recency orders)", cfg.Shards)
	}
	if (cfg.Reshard.Active() || cfg.Faults.Active()) && cfg.Policy != scratchpipe.LRU {
		fail("-policy %s: -reshard and -fail require -policy lru (migration re-threads LRU recency state)", cfg.Policy)
	}
	if cfg.CoordOverlap && cfg.Engine != scratchpipe.KindScratchPipe {
		fail("-coord-overlap applies to the scratchpipe engine, got -engine %s", cfg.Engine)
	}
	dynamic := cfg.Engine == scratchpipe.KindStrawMan || cfg.Engine == scratchpipe.KindScratchPipe
	if cfg.Reshard.Active() && !dynamic {
		fail("-reshard applies to the dynamic-cache engines (strawman|scratchpipe), got -engine %s", cfg.Engine)
	}
	if cfg.Faults.Active() && !dynamic {
		fail("-fail applies to the dynamic-cache engines (strawman|scratchpipe), got -engine %s", cfg.Engine)
	}

	class, err := scratchpipe.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Class = class
	stopProfiles, err := startProfiles()
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()

	if cfg.Serve.Active() {
		cfg.Serve.CacheFrac = cfg.CacheFrac
		// Serving is a pure simulation over ID metadata — real float32
		// tables would only add allocation time (and at paper scale,
		// tens of GB).
		cfg.Functional = false
		runServe(cfg)
		return
	}
	tr, err := scratchpipe.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("training %s on %s locality: %d tables x %d rows x %d dims, batch %d\n",
		tr.Engine(), cfg.Class, cfg.Model.NumTables, cfg.Model.RowsPerTable, cfg.Model.EmbeddingDim, cfg.Model.BatchSize)
	rep, err := tr.Train(*iters)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d iterations complete\n", rep.Iters)
	fmt.Printf("  simulated iteration time: %.3f ms (wall %.1f ms)\n", rep.IterTime*1e3, rep.Wall*1e3)
	if cfg.Functional {
		fmt.Printf("  mean training loss:       %.4f\n", rep.AvgLoss)
	}
	if rep.Hits+rep.Misses > 0 {
		fmt.Printf("  cache hit rate:           %.1f%% (%d fills, %d write-backs)\n",
			rep.HitRate()*100, rep.Fills, rep.Evictions)
	}
	fmt.Printf("  breakdown: cpu-emb-fwd %.3f ms, cpu-emb-bwd %.3f ms, gpu %.3f ms\n",
		rep.CPUEmbFwd*1e3, rep.CPUEmbBwd*1e3, rep.GPUTime*1e3)
	if rep.CoordTime > 0 {
		finalShards := cfg.Shards
		if rep.FinalShards > 0 {
			finalShards = rep.FinalShards
		}
		fmt.Printf("  shard coordination:       %.3f ms/iter (%s, %s placement, %d shards, %s protocol)\n",
			rep.CoordTime*1e3, cfg.Topology.Name, cfg.Placement, finalShards, rep.CoordMode)
		fmt.Printf("    rounds: %d total (%d polls, %d confirms, %d slot moves, %d stamp syncs, %d borrows), %.1f KB\n",
			rep.Coord.Messages, rep.Coord.PollRounds, rep.Coord.ConfirmRounds,
			rep.Coord.SlotMoveRounds, rep.Coord.StampSyncRounds, rep.Coord.BorrowRounds,
			rep.Coord.Bytes()/1e3)
		if rep.CoordWallTime > 0 {
			fmt.Printf("    message plane: %.3f ms/iter measured wall (modeled %.3f ms/iter)\n",
				rep.CoordWallTime*1e3, rep.CoordTime*1e3)
		}
		if ov := rep.Overlap; ov.Speculated > 0 {
			fmt.Printf("    overlap: %d speculated, %d adopted, %d rolled back\n",
				ov.Speculated, ov.Adopted, ov.RolledBack)
		}
	}
	if rs := rep.Resharding; rs.Events > 0 {
		// Resharding counters sum across tables; every boundary
		// reshards each table's manager once.
		fmt.Printf("  elastic resharding:       %d boundaries -> %d shards; %d resident / %d free / %d hold entries migrated\n",
			rs.Events/int64(cfg.Model.NumTables), rep.FinalShards, rs.ResidentMoved, rs.FreeMoved, rs.HoldsMoved)
		fmt.Printf("    migration: %.1f KB in %d transfers, %.3f ms modeled stall\n",
			rs.Bytes/1e3, rs.Rounds, rep.MigrationTime*1e3)
	}
	// Fault-tolerance section: keyed off the flags, not the report, so
	// fault-free runs print byte-identically to the pre-fault tree.
	if cfg.Faults.Active() || cfg.CkptInterval > 0 {
		fmt.Printf("  fault tolerance:          downtime %.1f ms, recovery %.3f ms, availability %.4f%%\n",
			rep.Downtime*1e3, rep.RecoveryTime*1e3, rep.Availability*100)
		if ev := rep.Evac; ev.Events > 0 {
			fmt.Printf("    evacuation: %d events, %d shards re-homed; %d resident lost, %d restored, %d held kept; %.1f KB in %d transfers\n",
				ev.Events, ev.ShardsEvacuated, ev.LostResident, ev.RestoredResident, ev.HeldKept,
				ev.Bytes/1e3, ev.Rounds)
		}
		if cfg.CkptInterval > 0 {
			fmt.Printf("    checkpoints: every %d iters, %.3f ms flush total\n",
				cfg.CkptInterval, rep.CheckpointTime*1e3)
		}
	}
}
