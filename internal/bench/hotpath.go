// Hot-path benchmark harness: measures the Figure 13 sweep — the run
// that exercises every engine's steady-state cycle — with real wall-clock
// and allocator counters, and appends the result to a JSON history file
// so successive PRs can track the simulator's performance trajectory.

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/trace"
)

// HotPathResult is one measurement of the hot-path benchmark.
type HotPathResult struct {
	// Timestamp is RFC3339 UTC at measurement time.
	Timestamp string `json:"timestamp"`
	// Config labels the benchmark configuration ("quick" or "full").
	Config string `json:"config"`
	// Workers is the per-table fan-out bound; GoMaxProcs the host
	// parallelism it resolved against.
	Workers    int `json:"workers"`
	GoMaxProcs int `json:"gomaxprocs"`
	// Shards is the per-table scratchpad shard count (0/1 = unsharded),
	// so the history records per-shard-count scaling of the same sweep.
	Shards int `json:"shards,omitempty"`
	// Topology/Placement record the shard placement shape of the sweep
	// (empty = all shards co-located / stripe): entries of the
	// sharded+placement family gate independently of the co-located
	// baseline, whose coordination cost is zero by construction.
	Topology  string `json:"topology,omitempty"`
	Placement string `json:"placement,omitempty"`
	// CoordMode records the cross-shard coordination protocol of the
	// sweep (empty = exact, the per-eviction reference protocol).
	CoordMode string `json:"coord_mode,omitempty"`
	// CoordRounds/CoordSeconds total the sweep's cross-node
	// coordination message rounds and modeled link time (simulated
	// quantities: deterministic for a given configuration, so benchgate
	// gates protocol regressions on them exactly).
	CoordRounds  int64   `json:"coord_rounds,omitempty"`
	CoordSeconds float64 `json:"coord_seconds,omitempty"`
	// CoordWallSeconds is the coordination wall under the message
	// plane's per-host FIFO queueing model (internal/msgplane),
	// recorded beside the serial CoordSeconds so benchgate can gate the
	// skew |serial - queued| / serial within the documented tolerance
	// (DESIGN.md §12).
	CoordWallSeconds float64 `json:"coord_wall_seconds,omitempty"`
	// CoordOverlap records whether the sweep ran with overlapped
	// coordination (-coord-overlap): overlap entries are their own
	// family — same traffic, different wall shape.
	CoordOverlap bool `json:"coord_overlap,omitempty"`
	// OverlapSpeculated/Adopted/RolledBack total the sweep's overlap
	// outcomes (shard.OverlapStats; deterministic, so benchgate gates
	// them exactly and a regression that silently stops hiding rounds is
	// caught).
	OverlapSpeculated int64 `json:"overlap_speculated,omitempty"`
	OverlapAdopted    int64 `json:"overlap_adopted,omitempty"`
	OverlapRolledBack int64 `json:"overlap_rolled_back,omitempty"`
	// SimWallSeconds totals the ScratchPipe runs' modeled wall across
	// the sweep's data points (deterministic). The overlap family's
	// value must sit strictly below its non-overlapped twin entry —
	// that is the gated "hot-path wall measurably drops" criterion.
	SimWallSeconds float64 `json:"sim_wall_seconds,omitempty"`
	// Reshard records the elastic-resharding schedule of the sweep in
	// the -reshard grammar (empty = no resharding): reshard entries
	// gate independently, since mid-sweep migration changes both the
	// allocation shape and the coordination totals.
	Reshard string `json:"reshard,omitempty"`
	// MigrationSeconds totals the sweep's modeled state-migration
	// latency (simulated, deterministic).
	MigrationSeconds float64 `json:"migration_seconds,omitempty"`
	// Faults records the fault schedule of the sweep in the -fail
	// grammar (empty = fault-free): fault entries gate independently,
	// since mid-sweep evacuation and degraded-mode coordination change
	// both the recovery bill and the coordination totals.
	Faults string `json:"faults,omitempty"`
	// CkptInterval records the checkpoint-flush interval of the sweep
	// (0 = checkpointing disabled).
	CkptInterval int `json:"ckpt_interval,omitempty"`
	// DowntimeSeconds/RecoverySeconds total the sweep's modeled outage
	// and repair time (simulated: deterministic for a given fault
	// schedule, so benchgate gates recovery-path regressions exactly).
	DowntimeSeconds float64 `json:"downtime_seconds,omitempty"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	// Serve/ServeArrival/ServeReplicas record the serving-family shape:
	// entries with a router name measured the online serving simulation
	// (internal/serve) instead of the Figure 13 training sweep and gate
	// independently of every training family.
	Serve         string `json:"serve,omitempty"`
	ServeArrival  string `json:"serve_arrival,omitempty"`
	ServeReplicas int    `json:"serve_replicas,omitempty"`
	// ServeThroughput/ServeHitRate/ServeP99Ms/ServeDrops are the serving
	// run's headline results (simulated, deterministic in the seed, so
	// benchgate gates routing regressions on them exactly).
	ServeThroughput float64 `json:"serve_throughput,omitempty"`
	ServeHitRate    float64 `json:"serve_hit_rate,omitempty"`
	ServeP99Ms      float64 `json:"serve_p99_ms,omitempty"`
	ServeDrops      int64   `json:"serve_drops,omitempty"`
	// ServeFaults/ServeResilience record the failure schedule
	// (-serve-fail, canonical FaultPlan form) and the engaged
	// client-resilience knobs (Options.ResilienceString) of a serving
	// sweep: fault-injected entries are their own family, gated
	// independently of fault-free serving baselines.
	ServeFaults     string `json:"serve_faults,omitempty"`
	ServeResilience string `json:"serve_resilience,omitempty"`
	// ServeAvailability/ServeGoodput are the fault family's headline
	// results; ServeRetried/ServeHedged/ServeShed/ServeTimedOut the
	// deterministic resilience counters benchgate matches exactly.
	ServeAvailability float64 `json:"serve_availability,omitempty"`
	ServeGoodput      float64 `json:"serve_goodput,omitempty"`
	ServeRetried      int64   `json:"serve_retried,omitempty"`
	ServeHedged       int64   `json:"serve_hedged,omitempty"`
	ServeShed         int64   `json:"serve_shed,omitempty"`
	ServeTimedOut     int64   `json:"serve_timed_out,omitempty"`
	// ServeBatch records the replica-side batching knob in canonical
	// BatchSpec form (empty = unbatched): batched entries are their own
	// family, gated independently of unbatched serving baselines.
	// ServeBatches/ServeBatchedQueries/ServeMaxBatch are the batcher's
	// deterministic counters, which benchgate matches exactly so a
	// scheduling regression that silently changes batch formation is
	// caught even when throughput barely moves.
	ServeBatch          string `json:"serve_batch,omitempty"`
	ServeBatches        int64  `json:"serve_batches,omitempty"`
	ServeBatchedQueries int64  `json:"serve_batched_queries,omitempty"`
	ServeMaxBatch       int    `json:"serve_max_batch,omitempty"`
	// Iters is the measured iterations per data point.
	Iters int `json:"iters"`
	// WallSeconds is the real time of one full Figure 13 sweep.
	WallSeconds float64 `json:"wall_seconds"`
	// Allocs/AllocBytes are the allocator's object and byte counts over
	// the sweep (runtime.MemStats deltas).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// ScratchPipeSpeedupAvg is the simulated headline result (mean
	// ScratchPipe speedup vs the static cache across all data points),
	// recorded so a perf regression that silently changes simulated
	// results is caught alongside one that slows the simulator.
	ScratchPipeSpeedupAvg float64 `json:"scratchpipe_speedup_avg"`
	// Note carries free-form context (e.g. "pre-change baseline").
	Note string `json:"note,omitempty"`
}

// HotPathHistory is the on-disk format of BENCH_hotpath.json.
type HotPathHistory struct {
	History []HotPathResult `json:"history"`
}

// HotPath runs one Figure 13 sweep under cfg and returns the
// measurement. With cfg.Serve active it measures the online serving
// simulation (the serving hot path) instead of the training sweep.
func HotPath(cfg Config, configName string) (*HotPathResult, error) {
	if cfg.Serve.Active() {
		return hotPathServe(cfg, configName)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pts, err := CollectFigure13(cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	var spSum, coordSec, coordWallSec, migSec, downSec, recovSec, simWall float64
	var coordRounds int64
	var overlap shard.OverlapStats
	for _, p := range pts {
		_, _, sp := p.SpeedupVsStatic()
		spSum += sp
		coordRounds += p.CoordRounds
		coordSec += p.CoordSeconds
		coordWallSec += p.CoordWallSeconds
		simWall += p.ScratchPipeWall
		overlap.Merge(p.Overlap)
		migSec += p.MigrationSeconds
		downSec += p.DowntimeSeconds
		recovSec += p.RecoverySeconds
	}
	topoName := ""
	if cfg.Topology != nil {
		topoName = cfg.Topology.Name
	}
	// The protocol is recorded even for co-located sweeps: hier
	// exercises the candidate-batch machinery (different allocation
	// shape) and approx changes eviction order regardless of placement,
	// so their entries must not masquerade as exact baselines.
	coordMode := ""
	if mode, err := shard.ParseCoordMode(string(cfg.Coord)); err == nil && mode != shard.CoordExact {
		coordMode = string(mode)
	}
	return &HotPathResult{
		Timestamp:             time.Now().UTC().Format(time.RFC3339),
		Config:                configName,
		Workers:               cfg.Workers,
		Shards:                cfg.Shards,
		Topology:              topoName,
		Placement:             string(cfg.Placement),
		CoordMode:             coordMode,
		CoordRounds:           coordRounds,
		CoordSeconds:          coordSec,
		CoordWallSeconds:      coordWallSec,
		CoordOverlap:          cfg.CoordOverlap,
		OverlapSpeculated:     overlap.Speculated,
		OverlapAdopted:        overlap.Adopted,
		OverlapRolledBack:     overlap.RolledBack,
		SimWallSeconds:        simWall,
		Reshard:               cfg.Reshard.String(),
		MigrationSeconds:      migSec,
		Faults:                cfg.Faults.String(),
		CkptInterval:          cfg.CkptInterval,
		DowntimeSeconds:       downSec,
		RecoverySeconds:       recovSec,
		GoMaxProcs:            runtime.GOMAXPROCS(0),
		Iters:                 cfg.Iters,
		WallSeconds:           wall.Seconds(),
		Allocs:                after.Mallocs - before.Mallocs,
		AllocBytes:            after.TotalAlloc - before.TotalAlloc,
		ScratchPipeSpeedupAvg: spSum / float64(len(pts)),
	}, nil
}

// hotPathServe measures the serving hot path: one engine.RunServe pass
// on the skewed (High locality) trace under cfg's serving options, with
// wall-clock/allocator counters around it and the deterministic
// throughput/hit-rate/p99 results recorded for benchgate's serving
// family.
func hotPathServe(cfg Config, configName string) (*HotPathResult, error) {
	cfg.Serve = cfg.Serve.WithDefaults()
	env, err := newEnv(cfg, cfg.Model, trace.High)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := engine.RunServe(env)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	topoName := ""
	if cfg.Topology != nil {
		topoName = cfg.Topology.Name
	}
	// Serving entries carry the same coordination columns as training
	// entries: protocol, rounds, modeled seconds, measured wall.
	coordMode := ""
	if mode, err := shard.ParseCoordMode(string(cfg.Coord)); err == nil && mode != shard.CoordExact {
		coordMode = string(mode)
	}
	return &HotPathResult{
		Timestamp:           time.Now().UTC().Format(time.RFC3339),
		Config:              configName,
		Workers:             cfg.Workers,
		Shards:              cfg.Shards,
		Topology:            topoName,
		Placement:           string(cfg.Placement),
		CoordMode:           coordMode,
		CoordRounds:         rep.CoordRounds,
		CoordSeconds:        rep.CoordTime,
		CoordWallSeconds:    rep.CoordWallTime,
		Serve:               string(rep.Router),
		ServeArrival:        cfg.Serve.Arrival.String(),
		ServeReplicas:       rep.Replicas,
		ServeThroughput:     rep.Throughput,
		ServeHitRate:        rep.HitRate(),
		ServeP99Ms:          rep.Latency.P99 * 1e3,
		ServeDrops:          rep.Drops,
		ServeFaults:         cfg.Serve.Faults.String(),
		ServeResilience:     cfg.Serve.ResilienceString(),
		ServeAvailability:   rep.Availability,
		ServeGoodput:        rep.Goodput,
		ServeRetried:        rep.Retried,
		ServeHedged:         rep.Hedged,
		ServeShed:           rep.Shed,
		ServeTimedOut:       rep.TimedOut,
		ServeBatch:          rep.Batch.String(),
		ServeBatches:        rep.Batches,
		ServeBatchedQueries: rep.BatchedQueries,
		ServeMaxBatch:       rep.MaxBatch,
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		Iters:               cfg.Iters,
		WallSeconds:         wall.Seconds(),
		Allocs:              after.Mallocs - before.Mallocs,
		AllocBytes:          after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// AppendHotPath appends res to the JSON history at path (creating it if
// absent) and returns the full history.
func AppendHotPath(path string, res *HotPathResult) (*HotPathHistory, error) {
	hist := &HotPathHistory{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, hist); err != nil {
			return nil, fmt.Errorf("bench: %s exists but is not a hot-path history: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	hist.History = append(hist.History, *res)
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return hist, nil
}
