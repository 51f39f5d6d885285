package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// planView is a PlanResult's observable content, copied out so it can be
// compared after the result is recycled.
type planView struct {
	Seq                 int
	UniqueIDs           []int64
	Slots               []int32
	OccHits, OccMisses  int
	Fills               []Fill
	Evictions           []Eviction
	ReserveAllocs       int
	FirstSlot, LastSlot int32
}

func viewOf(r *PlanResult) planView {
	v := planView{
		Seq:           r.Seq,
		UniqueIDs:     append([]int64(nil), r.UniqueIDs...),
		Slots:         append([]int32(nil), r.Slots...),
		OccHits:       r.OccHits,
		OccMisses:     r.OccMisses,
		Fills:         append([]Fill(nil), r.Fills...),
		Evictions:     append([]Eviction(nil), r.Evictions...),
		ReserveAllocs: r.ReserveAllocs,
	}
	if n := len(r.UniqueIDs); n > 0 {
		v.FirstSlot, v.LastSlot = r.Slot(r.UniqueIDs[0]), r.Slot(r.UniqueIDs[n-1])
	}
	return v
}

// randomPadConfig draws a scratchpad shape: slots, windows and a reserve
// anywhere from none to the worst-case bound.
func randomPadConfig(rng *rand.Rand, policy cache.PolicyKind, batchLen int) Config {
	cfg := Config{
		Slots:        4 + rng.Intn(60),
		Policy:       policy,
		PolicySeed:   rng.Int63(),
		PastWindow:   rng.Intn(4),
		FutureWindow: rng.Intn(3),
	}
	cfg.Reserve = rng.Intn(WorstCaseReserve(cfg, batchLen) + 1)
	return cfg
}

// padRun drives one scratchpad through a random pipeline-shaped stream
// (the seed fixes the stream) and records everything observable: every
// plan, the stats after every step, and the final ForEach order. Batches
// still in flight at the end stay in flight.
type padRun struct {
	Plans   []planView
	Stats   []Stats
	Prewarm int
	Err     string
	Walk    [][2]int64
}

func drivePad(sp *Scratchpad, seed int64, plans, batchLen int, idSpace int64) padRun {
	rng := rand.New(rand.NewSource(seed))
	var run padRun
	switch rng.Intn(3) {
	case 1:
		run.Prewarm = sp.PrewarmRows(idSpace, func() int64 { return rng.Int63n(idSpace) }, nil)
	case 2:
		run.Prewarm = sp.Prewarm(func() int64 { return rng.Int63n(idSpace) }, nil)
	}
	batches := make([][]int64, plans+8)
	for i := range batches {
		b := make([]int64, 1+rng.Intn(batchLen))
		for j := range b {
			// Skewed IDs, so batches overlap and hits occur.
			b[j] = int64(float64(idSpace) * rng.Float64() * rng.Float64())
		}
		batches[i] = b
	}
	lookahead := sp.cfg.FutureWindow + rng.Intn(3)
	var inFlight []*PlanResult
	for seq := 0; seq < plans; seq++ {
		var future, hints [][]int64
		for k := 1; k <= lookahead; k++ {
			if k <= sp.cfg.FutureWindow {
				future = append(future, batches[seq+k])
			} else {
				hints = append(hints, batches[seq+k])
			}
		}
		res, err := sp.PlanWithHints(seq, batches[seq], future, hints)
		if err != nil {
			run.Err = err.Error()
			break
		}
		run.Plans = append(run.Plans, viewOf(res))
		inFlight = append(inFlight, res)
		if len(inFlight) > sp.cfg.PastWindow {
			old := inFlight[0]
			if err := sp.Release(old.Seq); err != nil {
				run.Err = err.Error()
				break
			}
			sp.Recycle(old)
			inFlight = inFlight[1:]
		}
		run.Stats = append(run.Stats, sp.Stats())
	}
	sp.ForEach(func(id int64, slot int32) { run.Walk = append(run.Walk, [2]int64{id, int64(slot)}) })
	return run
}

// TestResetMatchesNew is the differential check behind scratchpad reuse:
// a scratchpad that ran one random configuration, left batches in flight
// and was then Reset to a second configuration must behave exactly like
// NewScratchpad of the second — every PlanResult, the Stats after every
// Plan, and the ForEach order — under each replacement policy.
func TestResetMatchesNew(t *testing.T) {
	const batchLen, idSpace = 24, 400
	for _, policy := range []cache.PolicyKind{cache.LRU, cache.LFU, cache.RandomPolicy} {
		t.Run(string(policy), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 40; trial++ {
				prior := []cache.PolicyKind{cache.LRU, cache.LFU, cache.RandomPolicy}[rng.Intn(3)]
				usedCfg := randomPadConfig(rng, prior, batchLen)
				used := mustPad(t, usedCfg)
				drivePad(used, rng.Int63(), 2+rng.Intn(12), batchLen, idSpace)

				cfg := randomPadConfig(rng, policy, batchLen)
				if trial%3 == 0 {
					// Same shape again: every buffer is reused as is.
					cfg = usedCfg
					cfg.Policy = policy
				}
				if err := used.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				seed, plans := rng.Int63(), 4+rng.Intn(20)
				got := drivePad(used, seed, plans, batchLen, idSpace)
				want := drivePad(mustPad(t, cfg), seed, plans, batchLen, idSpace)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: reset scratchpad diverged from a new one under %+v:\n%s",
						trial, cfg, firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff names the first plan or stats step where two runs differ.
func firstDiff(got, want padRun) string {
	for i := range got.Plans {
		if i >= len(want.Plans) || !reflect.DeepEqual(got.Plans[i], want.Plans[i]) {
			return fmt.Sprintf("plan %d", i)
		}
	}
	for i := range got.Stats {
		if i >= len(want.Stats) || got.Stats[i] != want.Stats[i] {
			return fmt.Sprintf("stats after plan %d: %+v vs %+v", i, got.Stats[i], want.Stats[i])
		}
	}
	return fmt.Sprintf("prewarm %d vs %d, error %q vs %q, %d vs %d resident entries",
		got.Prewarm, want.Prewarm, got.Err, want.Err, len(got.Walk), len(want.Walk))
}

// TestResetRejectsBadConfig checks that a failed Reset leaves the
// scratchpad usable in its previous configuration.
func TestResetRejectsBadConfig(t *testing.T) {
	cfg := testConfig(8, 4)
	sp := mustPad(t, cfg)
	for _, bad := range []Config{{Slots: 0, Policy: cache.LRU}, {Slots: 4, Policy: "bogus"}} {
		if err := sp.Reset(bad); err == nil {
			t.Fatalf("Reset accepted %+v", bad)
		}
	}
	got := drivePad(sp, 3, 10, 6, 50)
	want := drivePad(mustPad(t, cfg), 3, 10, 6, 50)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failed Reset changed the scratchpad: %s", firstDiff(got, want))
	}
}
