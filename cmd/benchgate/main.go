// Command benchgate is the CI benchmark-regression smoke gate: it re-runs
// the quick hot-path sweep (the same measurement `spbench -quick -json`
// records) and fails when wall time or allocation count regresses beyond
// the configured thresholds against the committed BENCH_hotpath.json
// baseline.
//
// Usage:
//
//	benchgate -baseline BENCH_hotpath.json [-config quick|full]
//	          [-wall-factor 1.25] [-alloc-factor 1.25]
//	          [-coord-factor 1.25] [-skew-tolerance 0.75] [-runs 2]
//	          [run flags]
//
// The run flags are the ones spbench and dlrmtrain share
// (engine.EnvConfig.RegisterFlags: -workers, -shards, -topology,
// -placement, -coord, -coord-overlap, -reshard, -fail, -ckpt-interval,
// -serve and the serving flags), with the same defaults except
// -workers 1. The gate measures with Workers=1 and Shards=1 by default
// so allocation counts are deterministic and wall time does not depend
// on the CI runner's core count; it compares against the most recent
// baseline entry
// with the same configuration label and the same
// workers/shards/topology/placement/coord shape. Passing -shards with
// -topology/-placement gates the sharded+placement entry family (the
// coordination-metering hot path) against its own baseline; adding
// -coord gates a specific coordination protocol, and when the baseline
// entry recorded coordination rounds the gate also fails on a >25%
// (by default; -coord-factor) round-count regression — rounds are
// simulated and deterministic, so a regression there is a protocol
// change, not noise. Passing -reshard gates the elastic-resharding
// entry family — a mid-sweep shard-count transition with live state
// migration — against its own baseline (the schedule string must match
// the recorded entry's); modeled migration seconds gate at the same
// -coord-factor threshold when the baseline recorded any. Passing
// -fail (with a matching -ckpt-interval) gates the fault-family
// entries — a deterministic mid-sweep failure schedule with shard
// evacuation, degraded-mode coordination, and priced recovery — and
// additionally fails on a modeled recovery-seconds regression at the
// -coord-factor threshold, since the recovery bill is deterministic
// for a given schedule. Passing -serve (with -router/-replicas/-arrival)
// gates the serving-family entries — the online serving simulation —
// on their deterministic throughput, hit rate, and p99, where *falling
// below* the baseline by the -coord-factor is the regression. Adding
// -serve-fail (with -deadline/-retry/-hedge/-admission) gates the
// fault-injected serving family: availability and goodput must not
// fall below the baseline by the -coord-factor, and the retried/
// hedged/shed counters must match the baseline exactly — they are
// deterministic in the seed, so any drift means the resilience
// machinery (retry scheduling, hedge arming, admission shedding)
// changed behaviour. Passing -serve-batch gates the batched serving
// family: the batch-launch count and batched-query count must match
// the baseline exactly — batch formation is deterministic in the
// seed, so any drift means the batcher's scheduling changed.
//
// Entries that recorded a coordination wall additionally gate the
// serial-vs-queued skew |coord_seconds - coord_wall_seconds| /
// coord_seconds against -skew-tolerance (DESIGN.md §12 documents why
// the queueing model legitimately undershoots the serial sum).
// Passing -coord-overlap gates the overlapped-coordination family: the
// overlap counters must match the baseline exactly (they are
// deterministic — a regression that silently stops hiding rounds is a
// failure even though plans stay correct), an undisturbed family must
// hide a round in every marked Plan, and the deterministic modeled
// sweep wall (sim_wall_seconds) must sit strictly below the matching
// non-overlap twin entry's — the gated "overlap measurably wins"
// criterion.
//
// Wall time is the minimum of -runs sweeps, which damps scheduler
// noise on shared runners. On any regression the gate prints the
// failing family's full baseline-vs-measured delta table, not just the
// first offending metric. Exit status 1 means a regression, 2 a
// usage/baseline problem.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "BENCH_hotpath.json", "committed hot-path history to gate against")
	configName := flag.String("config", "quick", "configuration label to measure and match (quick|full)")
	wallFactor := flag.Float64("wall-factor", 1.25, "fail if wall time exceeds baseline by this factor")
	allocFactor := flag.Float64("alloc-factor", 1.25, "fail if allocation count exceeds baseline by this factor")
	coordFactor := flag.Float64("coord-factor", 1.25, "fail if coordination rounds exceed baseline by this factor (entries with recorded rounds only)")
	skewTol := flag.Float64("skew-tolerance", 0.75, "fail if the serial-vs-queued coordination skew exceeds this fraction (entries with a recorded coordination wall only)")
	runs := flag.Int("runs", 2, "measurement repetitions (best wall time wins)")
	gateFlags := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) { gateFlags[f.Name] = true })
	cfg := bench.Default()
	cfg.Workers = 1
	finish := cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *configName == "quick" {
		q := bench.Quick()
		cfg.Model, cfg.Iters = q.Model, q.Iters
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var hist bench.HotPathHistory
	if err := json.Unmarshal(data, &hist); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s is not a hot-path history: %v\n", *baseline, err)
		os.Exit(2)
	}
	want := family(cfg, *configName)
	base := pickBaseline(hist.History, want)
	if base == nil {
		// spbench records the same family from the same run flags; only
		// -workers defaults differently there.
		record := "go run ./cmd/spbench -json " + *baseline
		if *configName == "quick" {
			record += " -quick"
		}
		record += fmt.Sprintf(" -workers=%d", cfg.Workers)
		flag.Visit(func(f *flag.Flag) {
			if !gateFlags[f.Name] && f.Name != "workers" {
				record += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
			}
		})
		fmt.Fprintf(os.Stderr, "benchgate: no %q entry of this shape in %s to gate against; record one with:\n  %s\n",
			*configName, *baseline, record)
		os.Exit(2)
	}

	var best *bench.HotPathResult
	for i := 0; i < *runs; i++ {
		res, err := bench.HotPath(cfg, *configName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if best == nil || res.WallSeconds < best.WallSeconds {
			best = res
		}
	}

	fmt.Printf("benchgate: baseline %s (workers=%d shards=%d): %.2fs wall, %d allocs, %d coord rounds\n",
		base.Timestamp, base.Workers, base.Shards, base.WallSeconds, base.Allocs, base.CoordRounds)
	fmt.Printf("benchgate: measured (best of %d):            %.2fs wall, %d allocs, %d coord rounds\n",
		*runs, best.WallSeconds, best.Allocs, best.CoordRounds)

	failed := false
	if limit := base.WallSeconds * *wallFactor; best.WallSeconds > limit {
		fmt.Printf("benchgate: FAIL wall time %.2fs exceeds %.2fs (baseline x %.2f)\n",
			best.WallSeconds, limit, *wallFactor)
		failed = true
	}
	if limit := float64(base.Allocs) * *allocFactor; float64(best.Allocs) > limit {
		fmt.Printf("benchgate: FAIL allocs %d exceed %.0f (baseline x %.2f)\n",
			best.Allocs, limit, *allocFactor)
		failed = true
	}
	// Coordination rounds are simulated and deterministic: exceeding the
	// baseline means the protocol itself regressed (e.g. batching broke
	// and the coordinator fell back to per-eviction rounds).
	if base.CoordRounds > 0 {
		if limit := float64(base.CoordRounds) * *coordFactor; float64(best.CoordRounds) > limit {
			fmt.Printf("benchgate: FAIL coordination rounds %d exceed %.0f (baseline x %.2f)\n",
				best.CoordRounds, limit, *coordFactor)
			failed = true
		}
	}
	// Modeled migration seconds are equally deterministic: a growth here
	// means the reshard path started shipping more state (or pricing
	// links it used to consider local).
	if base.MigrationSeconds > 0 {
		if limit := base.MigrationSeconds * *coordFactor; best.MigrationSeconds > limit {
			fmt.Printf("benchgate: FAIL migration %.4fs exceeds %.4fs (baseline x %.2f)\n",
				best.MigrationSeconds, limit, *coordFactor)
			failed = true
		}
	}
	// Modeled recovery seconds gate the fault path: evacuation bytes,
	// re-election rounds, and checkpoint-replay billing are all
	// deterministic for a given schedule, so growth means the recovery
	// machinery itself got more expensive.
	if base.RecoverySeconds > 0 {
		if limit := base.RecoverySeconds * *coordFactor; best.RecoverySeconds > limit {
			fmt.Printf("benchgate: FAIL recovery %.4fs exceeds %.4fs (baseline x %.2f)\n",
				best.RecoverySeconds, limit, *coordFactor)
			failed = true
		}
	}
	// Serving entries gate on the simulated throughput/hit-rate/p99,
	// which are deterministic in the seed: falling below the baseline
	// (note the inverted direction — lower is the regression) means the
	// router or the serving cache path itself changed behaviour.
	if base.Serve != "" {
		if floor := base.ServeThroughput / *coordFactor; best.ServeThroughput < floor {
			fmt.Printf("benchgate: FAIL serving throughput %.0f q/s below %.0f (baseline / %.2f)\n",
				best.ServeThroughput, floor, *coordFactor)
			failed = true
		}
		if floor := base.ServeHitRate / *coordFactor; best.ServeHitRate < floor {
			fmt.Printf("benchgate: FAIL serving hit rate %.3f below %.3f (baseline / %.2f)\n",
				best.ServeHitRate, floor, *coordFactor)
			failed = true
		}
		if limit := base.ServeP99Ms * *coordFactor; best.ServeP99Ms > limit {
			fmt.Printf("benchgate: FAIL serving p99 %.3f ms exceeds %.3f ms (baseline x %.2f)\n",
				best.ServeP99Ms, limit, *coordFactor)
			failed = true
		}
	}
	// The batched serving family additionally matches the batcher's
	// counters exactly: batch formation is deterministic in the seed, so
	// a moved launch count or occupancy means the batch scheduler itself
	// changed behaviour — exactly the silent drift this gate exists to
	// catch, since throughput can stay flat while batching degrades.
	if base.Serve != "" && base.ServeBatch != "" {
		if best.ServeBatch != base.ServeBatch {
			fmt.Printf("benchgate: FAIL serve batch spec %q != baseline %q\n",
				best.ServeBatch, base.ServeBatch)
			failed = true
		}
		if best.ServeBatches != base.ServeBatches ||
			best.ServeBatchedQueries != base.ServeBatchedQueries ||
			best.ServeMaxBatch != base.ServeMaxBatch {
			fmt.Printf("benchgate: FAIL batch counters moved: batches %d->%d, batched queries %d->%d, max batch %d->%d (deterministic; gate is exact)\n",
				base.ServeBatches, best.ServeBatches,
				base.ServeBatchedQueries, best.ServeBatchedQueries,
				base.ServeMaxBatch, best.ServeMaxBatch)
			failed = true
		}
	}
	// The fault-injected serving family gates availability and goodput as
	// floors (lower is the regression), and the resilience counters
	// exactly: retry scheduling, hedge arming, and admission shedding are
	// all deterministic in the seed, so any drift means the machinery
	// itself changed behaviour, not noise.
	if base.Serve != "" && (base.ServeFaults != "" || base.ServeResilience != "") {
		if floor := base.ServeAvailability / *coordFactor; best.ServeAvailability < floor {
			fmt.Printf("benchgate: FAIL serving availability %.4f below %.4f (baseline / %.2f)\n",
				best.ServeAvailability, floor, *coordFactor)
			failed = true
		}
		if floor := base.ServeGoodput / *coordFactor; best.ServeGoodput < floor {
			fmt.Printf("benchgate: FAIL serving goodput %.0f q/s below %.0f (baseline / %.2f)\n",
				best.ServeGoodput, floor, *coordFactor)
			failed = true
		}
		if best.ServeRetried != base.ServeRetried ||
			best.ServeHedged != base.ServeHedged ||
			best.ServeShed != base.ServeShed {
			fmt.Printf("benchgate: FAIL resilience counters moved: retried %d->%d, hedged %d->%d, shed %d->%d (deterministic; gate is exact)\n",
				base.ServeRetried, best.ServeRetried,
				base.ServeHedged, best.ServeHedged,
				base.ServeShed, best.ServeShed)
			failed = true
		}
	}
	// The serial-vs-queued skew: the message plane's queueing makespan
	// must track the serial sum within the documented tolerance
	// (DESIGN.md §12 — the queueing model legitimately undershoots
	// because it overlaps rounds the sum prices serially).
	if best.CoordSeconds > 0 && best.CoordWallSeconds > 0 {
		skew := math.Abs(best.CoordSeconds-best.CoordWallSeconds) / best.CoordSeconds
		if skew > *skewTol {
			fmt.Printf("benchgate: FAIL serial-vs-queued coordination skew %.3f exceeds %.2f (serial %.4fs, queued %.4fs)\n",
				skew, *skewTol, best.CoordSeconds, best.CoordWallSeconds)
			failed = true
		}
	}
	// The modeled sweep wall is deterministic for a configuration, so it
	// gates at the coordination threshold like the other simulated
	// quantities.
	if base.SimWallSeconds > 0 {
		if limit := base.SimWallSeconds * *coordFactor; best.SimWallSeconds > limit {
			fmt.Printf("benchgate: FAIL modeled sweep wall %.4fs exceeds %.4fs (baseline x %.2f)\n",
				best.SimWallSeconds, limit, *coordFactor)
			failed = true
		}
	}
	// The overlap family's outcome counters are deterministic: any
	// drift from the baseline means the look-ahead check or its
	// invalidation changed behaviour (plans would still be correct, but
	// the overlap win silently erodes, which is exactly what this gate
	// exists to catch).
	if cfg.CoordOverlap {
		if best.OverlapSpeculated == 0 {
			fmt.Printf("benchgate: FAIL overlap family never marked a Plan overlapped\n")
			failed = true
		}
		if !cfg.Faults.Active() && (best.OverlapAdopted != best.OverlapSpeculated || best.OverlapRolledBack != 0) {
			fmt.Printf("benchgate: FAIL undisturbed overlap family must hide a round in every marked Plan (speculated %d, adopted %d, rolled back %d)\n",
				best.OverlapSpeculated, best.OverlapAdopted, best.OverlapRolledBack)
			failed = true
		}
		if best.OverlapSpeculated != base.OverlapSpeculated ||
			best.OverlapAdopted != base.OverlapAdopted ||
			best.OverlapRolledBack != base.OverlapRolledBack {
			fmt.Printf("benchgate: FAIL overlap counters moved: speculated %d->%d, adopted %d->%d, rolled back %d->%d (deterministic; gate is exact)\n",
				base.OverlapSpeculated, best.OverlapSpeculated,
				base.OverlapAdopted, best.OverlapAdopted,
				base.OverlapRolledBack, best.OverlapRolledBack)
			failed = true
		}
		// The win itself: the overlapped sweep's modeled wall must sit
		// strictly below the matching non-overlap twin entry's.
		want.CoordOverlap = false
		twin := pickBaseline(hist.History, want)
		switch {
		case twin == nil || twin.SimWallSeconds <= 0:
			fmt.Fprintf(os.Stderr, "benchgate: no non-overlap twin entry in %s to verify the overlap win against; record one with the same shape minus -coord-overlap\n", *baseline)
			os.Exit(2)
		case best.SimWallSeconds >= twin.SimWallSeconds:
			fmt.Printf("benchgate: FAIL overlap did not beat the non-overlap twin: sim wall %.6fs vs twin %.6fs\n",
				best.SimWallSeconds, twin.SimWallSeconds)
			failed = true
		default:
			fmt.Printf("benchgate: overlap win %.4fs -> %.4fs modeled sweep wall (-%.2f%% vs non-overlap twin)\n",
				twin.SimWallSeconds, best.SimWallSeconds,
				100*(1-best.SimWallSeconds/twin.SimWallSeconds))
		}
	}
	if failed {
		printDelta(base, best)
		os.Exit(1)
	}
	coordNote := ""
	if base.CoordRounds > 0 {
		coordNote = fmt.Sprintf(", coord rounds %.2fx", float64(best.CoordRounds)/float64(base.CoordRounds))
	}
	fmt.Printf("benchgate: PASS (wall %.2fx, allocs %.2fx of baseline%s)\n",
		best.WallSeconds/base.WallSeconds, float64(best.Allocs)/float64(base.Allocs), coordNote)
}

// family is the entry a measurement of cfg under the configuration label
// records, reduced to the fields that name its family: the run shape,
// before any result is in.
func family(cfg bench.Config, config string) bench.HotPathResult {
	f := bench.HotPathResult{
		Config:       config,
		Workers:      cfg.Workers,
		Shards:       cfg.Shards,
		Placement:    string(cfg.Placement),
		CoordMode:    string(cfg.Coord),
		CoordOverlap: cfg.CoordOverlap,
		Reshard:      cfg.Reshard.String(),
		Faults:       cfg.Faults.String(),
		CkptInterval: cfg.CkptInterval,
	}
	if cfg.Topology != nil {
		f.Topology = cfg.Topology.Name
	}
	if cfg.Serve.Active() {
		s := cfg.Serve.WithDefaults()
		f.Serve, f.ServeArrival, f.ServeReplicas = string(s.Router), s.Arrival.String(), s.Replicas
		f.ServeFaults, f.ServeResilience, f.ServeBatch = s.Faults.String(), s.ResilienceString(), s.Batch.String()
	}
	return f
}

// familyKey reduces an entry to its family fields with the defaults
// normalised: shards 0 and 1 both mean unsharded, and topology
// ""/"single", placement ""/"stripe" and coord ""/"exact" are the
// defaults. Placement is meaningless without a topology and is kept only
// when one is set. The protocol is kept even co-located: it changes the
// sweep machinery's allocation shape, and approx changes behaviour.
func familyKey(e bench.HotPathResult) bench.HotPathResult {
	k := bench.HotPathResult{
		Config:          e.Config,
		Workers:         e.Workers,
		Shards:          max(e.Shards, 1),
		CoordOverlap:    e.CoordOverlap,
		Reshard:         e.Reshard,
		Faults:          e.Faults,
		CkptInterval:    e.CkptInterval,
		Serve:           e.Serve,
		ServeArrival:    e.ServeArrival,
		ServeReplicas:   e.ServeReplicas,
		ServeFaults:     e.ServeFaults,
		ServeResilience: e.ServeResilience,
		ServeBatch:      e.ServeBatch,
	}
	if e.CoordMode != "exact" {
		k.CoordMode = e.CoordMode
	}
	if e.Topology != "" && e.Topology != "single" {
		k.Topology = e.Topology
		if e.Placement != "stripe" {
			k.Placement = e.Placement
		}
	}
	return k
}

// pickBaseline returns the most recent entry of want's family. A shape
// mismatch returns nil rather than silently gating against an entry
// measured under a different fan-out — e.g. the committed S=8
// shard-scaling record is ~50% slower and 4x more allocation-heavy than
// the S=1 baseline, and comparing against it would mask real
// regressions; the placement-family entries additionally pay
// coordination metering the co-located sweep never executes, and the
// hier/approx protocol entries send a fraction of the exact protocol's
// rounds.
func pickBaseline(hist []bench.HotPathResult, want bench.HotPathResult) *bench.HotPathResult {
	key := familyKey(want)
	var match *bench.HotPathResult
	for i := range hist {
		if familyKey(hist[i]) == key {
			match = &hist[i]
		}
	}
	return match
}

// printDelta dumps the failing family's full baseline-vs-measured table
// so one CI failure shows every metric's movement, not just the first
// offending gate. Rows where both sides are zero (fields the family
// never recorded) are omitted.
func printDelta(base, best *bench.HotPathResult) {
	type row struct {
		name    string
		b, m    float64
		integer bool
	}
	rows := []row{
		{"wall_seconds", base.WallSeconds, best.WallSeconds, false},
		{"allocs", float64(base.Allocs), float64(best.Allocs), true},
		{"alloc_bytes", float64(base.AllocBytes), float64(best.AllocBytes), true},
		{"scratchpipe_speedup_avg", base.ScratchPipeSpeedupAvg, best.ScratchPipeSpeedupAvg, false},
		{"coord_rounds", float64(base.CoordRounds), float64(best.CoordRounds), true},
		{"coord_seconds", base.CoordSeconds, best.CoordSeconds, false},
		{"coord_wall_seconds", base.CoordWallSeconds, best.CoordWallSeconds, false},
		{"sim_wall_seconds", base.SimWallSeconds, best.SimWallSeconds, false},
		{"overlap_speculated", float64(base.OverlapSpeculated), float64(best.OverlapSpeculated), true},
		{"overlap_adopted", float64(base.OverlapAdopted), float64(best.OverlapAdopted), true},
		{"overlap_rolled_back", float64(base.OverlapRolledBack), float64(best.OverlapRolledBack), true},
		{"migration_seconds", base.MigrationSeconds, best.MigrationSeconds, false},
		{"downtime_seconds", base.DowntimeSeconds, best.DowntimeSeconds, false},
		{"recovery_seconds", base.RecoverySeconds, best.RecoverySeconds, false},
		{"serve_throughput", base.ServeThroughput, best.ServeThroughput, false},
		{"serve_hit_rate", base.ServeHitRate, best.ServeHitRate, false},
		{"serve_p99_ms", base.ServeP99Ms, best.ServeP99Ms, false},
		{"serve_drops", float64(base.ServeDrops), float64(best.ServeDrops), true},
		{"serve_availability", base.ServeAvailability, best.ServeAvailability, false},
		{"serve_goodput", base.ServeGoodput, best.ServeGoodput, false},
		{"serve_retried", float64(base.ServeRetried), float64(best.ServeRetried), true},
		{"serve_hedged", float64(base.ServeHedged), float64(best.ServeHedged), true},
		{"serve_shed", float64(base.ServeShed), float64(best.ServeShed), true},
		{"serve_timed_out", float64(base.ServeTimedOut), float64(best.ServeTimedOut), true},
		{"serve_batches", float64(base.ServeBatches), float64(best.ServeBatches), true},
		{"serve_batched_queries", float64(base.ServeBatchedQueries), float64(best.ServeBatchedQueries), true},
		{"serve_max_batch", float64(base.ServeMaxBatch), float64(best.ServeMaxBatch), true},
	}
	fmt.Printf("benchgate: full family delta (baseline %s):\n", base.Timestamp)
	fmt.Printf("  %-24s %16s %16s %10s\n", "metric", "baseline", "measured", "ratio")
	for _, r := range rows {
		if r.b == 0 && r.m == 0 {
			continue
		}
		format := func(v float64) string {
			if r.integer {
				return fmt.Sprintf("%d", int64(v))
			}
			return fmt.Sprintf("%.6g", v)
		}
		ratio := "-"
		if r.b != 0 {
			ratio = fmt.Sprintf("%.3fx", r.m/r.b)
		}
		fmt.Printf("  %-24s %16s %16s %10s\n", r.name, format(r.b), format(r.m), ratio)
	}
}
