package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/shard"
	"repro/internal/trace"
)

// runOverlapSP builds and runs a 2% ScratchPipe over env, with env's
// CoordOverlap knob set to overlap.
func runOverlapSP(t *testing.T, env *Env, overlap bool, iters int) *Report {
	t.Helper()
	env.Cfg.CoordOverlap = overlap
	eng, err := NewScratchPipe(env, ScratchPipeOptions{CacheFrac: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOverlapReportEquivalence is the engine half of the overlapped-
// coordination tentpole: with -coord-overlap the plans, cache statistics,
// coordination traffic, and total modeled coordination latency are all
// unchanged — only WHERE the latency sits moves (out of the [Plan]
// critical path, into the concurrent overlap window), so the Plan stage
// and the run's modeled wall strictly shrink. The measured message-plane
// wall must also track the modeled total within the documented skew
// tolerance.
func TestOverlapReportEquivalence(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128
	const shards = 4
	const iters = 40

	for _, mode := range shard.CoordModes {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			base := runOverlapSP(t, coordEnv(t, model, shards, mode),
				false, iters)
			over := runOverlapSP(t, coordEnv(t, model, shards, mode),
				true, iters)

			if over.Hits != base.Hits || over.Misses != base.Misses ||
				over.Fills != base.Fills || over.Evictions != base.Evictions ||
				over.ReservePeak != base.ReservePeak {
				t.Fatalf("overlap changed cache behaviour:\noff %+v\non  %+v", base, over)
			}
			// Coordination traffic (bytes, rounds, every bucket) is
			// bit-identical; only the time-split fields may differ.
			bc, oc := base.Coord, over.Coord
			bc.Seconds, oc.Seconds = 0, 0
			bc.OverlapSeconds, oc.OverlapSeconds = 0, 0
			bc.WallSeconds, oc.WallSeconds = 0, 0
			bc.WallHiddenSeconds, oc.WallHiddenSeconds = 0, 0
			if !reflect.DeepEqual(bc, oc) {
				t.Fatalf("overlap changed coordination traffic:\noff %+v\non  %+v", bc, oc)
			}
			if base.Coord.Seconds <= 0 {
				t.Fatal("baseline run priced no coordination")
			}
			if rel := math.Abs(over.Coord.Seconds-base.Coord.Seconds) / base.Coord.Seconds; rel > 1e-9 {
				t.Fatalf("total coordination seconds moved by %g (off %g, on %g)",
					rel, base.Coord.Seconds, over.Coord.Seconds)
			}
			if rel := math.Abs(over.CoordTime-base.CoordTime) / base.CoordTime; rel > 1e-9 {
				t.Fatalf("Report.CoordTime moved by %g (off %g, on %g)", rel, base.CoordTime, over.CoordTime)
			}

			// Overlap outcomes: the baseline marks no Plan; the
			// overlapped run marks every Plan that will sweep and —
			// undisturbed by faults or resharding — hides a round in each.
			if base.Overlap != (shard.OverlapStats{}) {
				t.Fatalf("baseline reports overlap outcomes: %+v", base.Overlap)
			}
			ov := over.Overlap
			if ov.Speculated == 0 || ov.Adopted != ov.Speculated || ov.RolledBack != 0 {
				t.Fatalf("undisturbed overlap run should hide a round in every marked Plan: %+v", ov)
			}
			if over.Coord.OverlapSeconds <= 0 || over.Coord.OverlapSeconds >= over.Coord.Seconds {
				t.Fatalf("hidden share %g not a strict share of total %g",
					over.Coord.OverlapSeconds, over.Coord.Seconds)
			}

			// The whole point: the critical coordination share charged
			// to [Plan] strictly drops, and with it the run's modeled
			// wall (fill cycles are Plan-bound even when the steady-state
			// cycle is bound elsewhere). The steady-state cycle never
			// gets slower.
			if over.StageAvg[core.StagePlan] >= base.StageAvg[core.StagePlan] {
				t.Fatalf("overlap did not shrink the Plan stage: on %g, off %g",
					over.StageAvg[core.StagePlan], base.StageAvg[core.StagePlan])
			}
			if over.Wall >= base.Wall {
				t.Fatalf("overlap did not reduce modeled wall: on %g, off %g", over.Wall, base.Wall)
			}
			if over.IterTime > base.IterTime {
				t.Fatalf("overlap made the steady-state cycle slower: on %g, off %g", over.IterTime, base.IterTime)
			}

			// Measured wall twin: present in both runs (the plane runs
			// whether or not overlap is on) and within the documented
			// skew tolerance of the modeled total (DESIGN.md §12).
			for name, rep := range map[string]*Report{"off": base, "on": over} {
				if rep.CoordWallTime <= 0 {
					t.Fatalf("%s: no queued coordination wall", name)
				}
				skew := math.Abs(rep.CoordTime-rep.CoordWallTime) / rep.CoordTime
				t.Logf("%s: serial %g, queued %g, skew %.3f", name, rep.CoordTime, rep.CoordWallTime, skew)
				if skew > 0.75 {
					t.Fatalf("%s: serial-vs-queued skew %.3f above tolerance 0.75", name, skew)
				}
			}
		})
	}
}

// TestOverlapColocatedIdentical: under co-located placement there is no
// coordinator, so -coord-overlap must be a perfect no-op — the report is
// bit-identical and no Plan is ever marked overlapped.
func TestOverlapColocatedIdentical(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128

	base := runOverlapSP(t, metaEnv(t, model, trace.Medium, 4),
		false, 20)
	over := runOverlapSP(t, metaEnv(t, model, trace.Medium, 4),
		true, 20)
	if over.Overlap != (shard.OverlapStats{}) {
		t.Fatalf("co-located run marked Plans overlapped: %+v", over.Overlap)
	}
	if !reflect.DeepEqual(base, over) {
		t.Fatalf("co-located overlap not a no-op:\noff %+v\non  %+v", base, over)
	}
}

// TestOverlapWithFaultsStaysEquivalent drives the overlapped engine
// through the fault schedule used by the recovery tests: every fault
// event clears the managers' overlap marks, so some marked Plans hide
// nothing, yet cache statistics and coordination traffic match the
// non-overlapped run exactly.
func TestOverlapWithFaultsStaysEquivalent(t *testing.T) {
	model := dlrm.DefaultConfig()
	model.RowsPerTable = 50_000
	model.BatchSize = 128
	const iters = 40

	plan, err := hw.ParseFaultPlan("link:host0-host1@8-14,agg1@22")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(overlap bool) *Report {
		env, err := NewEnv(EnvConfig{
			Model:     model,
			System:    hw.DefaultSystem(),
			Class:     trace.Medium,
			Seed:      42,
			Workers:   2,
			Shards:    4,
			Topology:  hw.Cluster(2, 2),
			Placement: hw.PlaceStripe,
			Coord:     shard.CoordHier,
			Faults:    plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return runOverlapSP(t, env, overlap, iters)
	}

	base := mk(false)
	over := mk(true)
	if over.Hits != base.Hits || over.Misses != base.Misses ||
		over.Fills != base.Fills || over.Evictions != base.Evictions {
		t.Fatalf("faulted overlap changed cache behaviour:\noff %+v\non  %+v", base, over)
	}
	bc, oc := base.Coord, over.Coord
	bc.Seconds, oc.Seconds = 0, 0
	bc.OverlapSeconds, oc.OverlapSeconds = 0, 0
	bc.WallSeconds, oc.WallSeconds = 0, 0
	bc.WallHiddenSeconds, oc.WallHiddenSeconds = 0, 0
	if !reflect.DeepEqual(bc, oc) {
		t.Fatalf("faulted overlap changed coordination traffic:\noff %+v\non  %+v", bc, oc)
	}
	if over.Overlap.Speculated == 0 || over.Overlap.Adopted == 0 {
		t.Fatalf("faulted overlap run never adopted: %+v", over.Overlap)
	}
	if over.Overlap.RolledBack == 0 {
		t.Fatalf("fault events should have cleared at least one overlap mark: %+v", over.Overlap)
	}
}
