// Command dlrmtrain trains a DLRM end-to-end with a selectable training
// engine, printing the loss curve and the engine's simulated performance.
//
// Usage:
//
//	dlrmtrain -engine scratchpipe -class High -iters 50 -rows 100000
//	dlrmtrain -engine hybrid -functional=false -iters 20   # timing only
//	dlrmtrain -shards 4 -topology cluster2x2 -placement loadaware
//	dlrmtrain -shards 4 -topology cluster2x2 -coord hier   # batched host-tier coordination
//	dlrmtrain -shards 4 -topology cluster2x2 -coord approx -coord-quantum 64
//	dlrmtrain -shards 4 -topology cluster2x2 -coord hier -coord-overlap  # speculative coordination overlap
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
func runServe(cfg scratchpipe.Config, class scratchpipe.Class) {
	tr, err := scratchpipe.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := tr.Serve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on %s locality: %d replicas behind %s router, arrival %s\n",
		class, rep.Replicas, rep.Router, cfg.Serve.Arrival.String())
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
	engineFlag := flag.String("engine", "scratchpipe", "hybrid|static|strawman|scratchpipe|multigpu")
	classFlag := flag.String("class", "Medium", "locality class: Random|Low|Medium|High")
	iters := flag.Int("iters", 30, "training iterations")
	rows := flag.Int64("rows", 100_000, "rows per embedding table")
	tables := flag.Int("tables", 4, "number of embedding tables")
	dim := flag.Int("dim", 32, "embedding dimension")
	lookups := flag.Int("lookups", 8, "lookups per table")
	batch := flag.Int("batch", 256, "mini-batch size")
	cacheFrac := flag.Float64("cache", 0.05, "GPU cache fraction")
	policy := flag.String("policy", "lru", "replacement policy: lru|lfu|random")
	parallel := flag.Bool("parallel", false, "run pipeline stages in goroutines")
	workers := flag.Int("workers", 0, "per-table fan-out parallelism (0 = GOMAXPROCS, 1 = serial)")
	shards := flag.Int("shards", 1, "scratchpad shards per table (1 = unsharded; results identical at any count)")
	topology := flag.String("topology", "single", "shard placement topology (single, numa<N>, pcie<N>, nvlink<N>, cluster<H>x<S>)")
	placement := flag.String("placement", "stripe", "shard placement policy (stripe|range|loadaware)")
	coord := flag.String("coord", "exact", "cross-shard coordination protocol (exact|batched|hier|approx)")
	coordQuantum := flag.Int("coord-quantum", 0, "approx-mode recency quantum in clock ticks (0 = default; 1 = exact order)")
	coordOverlap := flag.Bool("coord-overlap", false, "overlap distributed coordination with the pipeline (scratchpipe engine; bit-identical plans, shrinks the Plan-stage coordination share)")
	reshard := flag.String("reshard", "", "elastic reshard schedule: iter:shards steps and/or load:<max>[:<thresh>] (e.g. 200:4,500:8 or load:8; empty = fixed sharding)")
	failPlan := flag.String("fail", "", "fault schedule: host<H>@<I>, agg<H>@<I>, link:host<A>-host<B>@<I>[-<J>], degrade:host<A>-host<B>@<I>[-<J>][x<F>] (e.g. host1@20,link:host0-host1@10-15; empty = no faults)")
	ckptInterval := flag.Int("ckpt-interval", 0, "priced scratchpad checkpoint flush every N iterations (0 = disabled; with -fail, host deaths restore residency from the last flush)")
	functional := flag.Bool("functional", true, "execute real float32 training")
	serveMode := flag.Bool("serve", false, "run the online serving simulation instead of training")
	replicas := flag.Int("replicas", 4, "serving replica workers (with -serve)")
	router := flag.String("router", "hitaware", "serving router policy: random|roundrobin|leastloaded|hitaware|hitaware-telemetry (with -serve)")
	arrival := flag.String("arrival", "poisson:2000", "serving arrival process: poisson:<qps>, diurnal:<qps>[:<amp>], or flash:<qps>[:<mult>[:<at>:<dur>]] (with -serve)")
	serveFail := flag.String("serve-fail", "", "serving fault schedule: replica<R>@<T>[-<T2>] and/or host<H>@<T>, times in virtual-clock seconds (with -serve; empty = no faults)")
	deadline := flag.Float64("deadline", 0, "per-query deadline in ms; responses past it count as timed out (with -serve; 0 = none)")
	retry := flag.String("retry", "", "client retry policy: <max>[:<backoff-ms>], exponential backoff to a different replica (with -serve; empty = no retries)")
	hedge := flag.Float64("hedge", 0, "hedged-request delay in ms; a backup attempt fires on another replica if no response by then (with -serve; 0 = no hedging)")
	admission := flag.String("admission", "", "admission control: newest|cheapest[:<threshold>][:degrade], or bare degrade (with -serve; empty = admit all)")
	serveBatch := flag.String("serve-batch", "", "replica-side request batching: <cap>[:<delay-ms>], e.g. 8 or 8:0.25 (with -serve; empty or 1 = no batching)")
	seed := flag.Int64("seed", 1, "random seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file (runtime/pprof)")
	flag.Parse()

	// Reject bad knob combinations here, with one-line errors, instead
	// of letting them fail (or silently misbehave) deep in the engine.
	if *shards < 1 {
		fail("-shards %d: shard count must be >= 1", *shards)
	}
	switch scratchpipe.PolicyKind(*policy) {
	case scratchpipe.LRU, scratchpipe.LFU, scratchpipe.RandomPolicy:
	default:
		fail("-policy %q: want lru, lfu, or random", *policy)
	}
	if *shards > 1 && scratchpipe.PolicyKind(*policy) != scratchpipe.LRU {
		fail("-shards %d requires -policy lru (the cross-shard eviction coordinator merges LRU recency orders)", *shards)
	}
	topo, err := scratchpipe.ParseTopology(*topology)
	if err != nil {
		fail("-topology %q: want single, numa<N>, pcie<N>, nvlink<N>, or cluster<H>x<S>", *topology)
	}
	place, err := scratchpipe.ParsePlacementPolicy(*placement)
	if err != nil {
		fail("-placement %q: want stripe, range, or loadaware", *placement)
	}
	coordMode, err := scratchpipe.ParseCoordMode(*coord)
	if err != nil {
		fail("-coord %q: want exact, batched, hier, or approx", *coord)
	}
	if *coordQuantum < 0 {
		fail("-coord-quantum %d: quantum must be >= 0", *coordQuantum)
	}
	if *coordQuantum > 0 && coordMode != scratchpipe.CoordApprox {
		fail("-coord-quantum only applies to -coord approx (got -coord %s)", coordMode)
	}
	if *coordOverlap && scratchpipe.Kind(*engineFlag) != scratchpipe.KindScratchPipe {
		fail("-coord-overlap applies to the scratchpipe engine, got -engine %s", *engineFlag)
	}
	reshardSpec, err := scratchpipe.ParseReshardSpec(*reshard)
	if err != nil {
		fail("-reshard %q: %v", *reshard, err)
	}
	if reshardSpec.MaxShards() > 1 && scratchpipe.PolicyKind(*policy) != scratchpipe.LRU {
		fail("-reshard reaching %d shards requires -policy lru", reshardSpec.MaxShards())
	}
	if reshardSpec.Active() {
		switch scratchpipe.Kind(*engineFlag) {
		case scratchpipe.KindStrawMan, scratchpipe.KindScratchPipe:
		default:
			fail("-reshard applies to the dynamic-cache engines (strawman|scratchpipe), got -engine %s", *engineFlag)
		}
	}
	faults, err := scratchpipe.ParseFaultPlan(*failPlan)
	if err != nil {
		fail("-fail %q: %v", *failPlan, err)
	}
	if *ckptInterval < 0 {
		fail("-ckpt-interval %d: interval must be >= 0", *ckptInterval)
	}
	if faults.Active() {
		if topo.NumNodes() <= 1 {
			fail("-fail needs a multi-host -topology (cluster<H>x<S>), got %q", *topology)
		}
		if err := faults.Validate(topo); err != nil {
			fail("-fail %q: %v", *failPlan, err)
		}
		switch scratchpipe.Kind(*engineFlag) {
		case scratchpipe.KindStrawMan, scratchpipe.KindScratchPipe:
		default:
			fail("-fail applies to the dynamic-cache engines (strawman|scratchpipe), got -engine %s", *engineFlag)
		}
	}

	// Serving flags: -router/-replicas/-arrival only mean something under
	// -serve, and each gets the same early one-line rejection treatment.
	routerPolicy, err := scratchpipe.ParseRouterPolicy(*router)
	if err != nil {
		fail("-router %q: want random, roundrobin, leastloaded, hitaware, or hitaware-telemetry", *router)
	}
	arrivalSpec, err := scratchpipe.ParseArrival(*arrival)
	if err != nil {
		fail("-arrival %q: want poisson:<qps>, diurnal:<qps>[:<amp>], or flash:<qps>[:<mult>[:<at>:<dur>]]", *arrival)
	}
	serveFaults, err := scratchpipe.ParseFaultPlan(*serveFail)
	if err != nil {
		fail("-serve-fail %q: %v", *serveFail, err)
	}
	retrySpec, err := scratchpipe.ParseRetry(*retry)
	if err != nil {
		fail("-retry %q: %v", *retry, err)
	}
	admissionSpec, err := scratchpipe.ParseAdmission(*admission)
	if err != nil {
		fail("-admission %q: %v", *admission, err)
	}
	batchSpec, err := scratchpipe.ParseBatch(*serveBatch)
	if err != nil {
		fail("-serve-batch %q: %v", *serveBatch, err)
	}
	if *deadline < 0 {
		fail("-deadline %g: deadline must be >= 0 ms", *deadline)
	}
	if *hedge < 0 {
		fail("-hedge %g: hedge delay must be >= 0 ms", *hedge)
	}
	if *serveMode {
		if *replicas < 1 {
			fail("-replicas %d: serving needs at least one replica", *replicas)
		}
		// Host-scoped serving faults need the multi-host placement graph;
		// mirror the engine, which only sees a topology when it is real.
		serveTopo := topo
		if topo.NumNodes() <= 1 {
			serveTopo = nil
		}
		if err := serveFaults.ValidateServe(*replicas, serveTopo); err != nil {
			fail("-serve-fail %q: %v", *serveFail, err)
		}
	} else {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "replicas", "router", "arrival", "serve-fail", "deadline", "retry", "hedge", "admission", "serve-batch":
				fail("-%s only applies with -serve", f.Name)
			}
		})
	}

	class, err := scratchpipe.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()
	model := scratchpipe.DefaultModel()
	model.RowsPerTable = *rows
	model.NumTables = *tables
	model.EmbeddingDim = *dim
	model.Lookups = *lookups
	model.BatchSize = *batch
	model.BottomHidden = []int{64, 32}
	model.TopHidden = []int{128, 64}

	cfg := scratchpipe.Config{
		Engine:       scratchpipe.Kind(*engineFlag),
		Model:        model,
		Class:        class,
		CacheFrac:    *cacheFrac,
		Policy:       scratchpipe.PolicyKind(*policy),
		Parallel:     *parallel,
		Workers:      *workers,
		Shards:       *shards,
		Functional:   *functional,
		Seed:         *seed,
		Placement:    place,
		Coord:        coordMode,
		CoordQuantum: *coordQuantum,
		CoordOverlap: *coordOverlap,
		Reshard:      reshardSpec,
		Faults:       faults,
		CkptInterval: *ckptInterval,
	}
	if topo.NumNodes() > 1 {
		cfg.Topology = topo
	}
	if *serveMode {
		cfg.Serve = scratchpipe.ServeOptions{
			Replicas:  *replicas,
			Router:    routerPolicy,
			Arrival:   arrivalSpec,
			CacheFrac: *cacheFrac,
			Faults:    serveFaults,
			Deadline:  *deadline * 1e-3,
			Retry:     retrySpec,
			Hedge:     *hedge * 1e-3,
			Admission: admissionSpec,
			Batch:     batchSpec,
		}
		// Serving is a pure simulation over ID metadata — real float32
		// tables would only add allocation time (and at paper scale,
		// tens of GB).
		cfg.Functional = false
		runServe(cfg, class)
		return
	}
	tr, err := scratchpipe.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("training %s on %s locality: %d tables x %d rows x %d dims, batch %d\n",
		tr.Engine(), class, *tables, *rows, *dim, *batch)
	rep, err := tr.Train(*iters)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d iterations complete\n", rep.Iters)
	fmt.Printf("  simulated iteration time: %.3f ms (wall %.1f ms)\n", rep.IterTime*1e3, rep.Wall*1e3)
	if *functional {
		fmt.Printf("  mean training loss:       %.4f\n", rep.AvgLoss)
	}
	if rep.Hits+rep.Misses > 0 {
		fmt.Printf("  cache hit rate:           %.1f%% (%d fills, %d write-backs)\n",
			rep.HitRate()*100, rep.Fills, rep.Evictions)
	}
	fmt.Printf("  breakdown: cpu-emb-fwd %.3f ms, cpu-emb-bwd %.3f ms, gpu %.3f ms\n",
		rep.CPUEmbFwd*1e3, rep.CPUEmbBwd*1e3, rep.GPUTime*1e3)
	if rep.CoordTime > 0 {
		finalShards := *shards
		if rep.FinalShards > 0 {
			finalShards = rep.FinalShards
		}
		fmt.Printf("  shard coordination:       %.3f ms/iter (%s, %s placement, %d shards, %s protocol)\n",
			rep.CoordTime*1e3, topo.Name, place, finalShards, rep.CoordMode)
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
			rs.Events/int64(*tables), rep.FinalShards, rs.ResidentMoved, rs.FreeMoved, rs.HoldsMoved)
		fmt.Printf("    migration: %.1f KB in %d transfers, %.3f ms modeled stall\n",
			rs.Bytes/1e3, rs.Rounds, rep.MigrationTime*1e3)
	}
	if div := rep.CoordDivergence; div.Plans > 0 {
		fmt.Printf("  approx-LRU divergence:    edit rate %.4f (distance %d over %d exact / %d approx evictions), hit-rate delta %+.4f%%\n",
			div.EditRate(), div.EditDistance, div.ExactEvictions, div.ApproxEvictions, div.HitRateDelta()*100)
	}
	// Fault-tolerance section: keyed off the flags, not the report, so
	// fault-free runs print byte-identically to the pre-fault tree.
	if faults.Active() || *ckptInterval > 0 {
		fmt.Printf("  fault tolerance:          downtime %.1f ms, recovery %.3f ms, availability %.4f%%\n",
			rep.Downtime*1e3, rep.RecoveryTime*1e3, rep.Availability*100)
		if ev := rep.Evac; ev.Events > 0 {
			fmt.Printf("    evacuation: %d events, %d shards re-homed; %d resident lost, %d restored, %d held kept; %.1f KB in %d transfers\n",
				ev.Events, ev.ShardsEvacuated, ev.LostResident, ev.RestoredResident, ev.HeldKept,
				ev.Bytes/1e3, ev.Rounds)
		}
		if *ckptInterval > 0 {
			fmt.Printf("    checkpoints: every %d iters, %.3f ms flush total\n",
				*ckptInterval, rep.CheckpointTime*1e3)
		}
	}
}
