package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/intmap"
	"repro/internal/par"
)

// resetShape is one manager configuration TestResetMatchesNew runs: S
// shards (placed on topo when S > 1) under a policy and protocol, with
// a capacity drawn from [minSlots, maxSlots). A used manager of a shape
// with reshard > 0 reshards to that many shards (placed on topo) after
// its Plans.
type resetShape struct {
	shards             int
	policy             cache.PolicyKind
	mode               CoordMode
	topo               *hw.Topology
	minSlots, maxSlots int
	reshard            int
}

// TestResetMatchesNew is the manager-level differential check behind
// scratchpad reuse: a manager that ran one shape (batches left in
// flight, hinted Plans, possibly the next Plan marked overlapped) and
// was then Reset to a second shape must behave exactly like New of the
// second — every plan including slot numbers, then every statistic the
// manager reports and the ForEach order. The first cases reset a
// manager of a random shape to S=1 under each policy and to S=4 on
// cluster2x2; the rest reset S=4 in place: growing and shrinking
// capacity, approx, a manager resharded from one shard with batches in
// flight, a move from cluster2x2 to numa4, and a reset with an overlap
// mark set. A reset onto a
// same-size placement must keep its meter and message plane.
func TestResetMatchesNew(t *testing.T) {
	const batchLen, idSpace = 48, 1024
	cluster, numa := hw.Cluster(2, 2), hw.MultiSocket(4)
	rng := rand.New(rand.NewSource(9))
	newCfg := func(t *testing.T, s resetShape) Config {
		sp := testConfig(s.minSlots+rng.Intn(s.maxSlots-s.minSlots), batchLen)
		sp.Policy, sp.PolicySeed = s.policy, rng.Int63()
		cfg := Config{Scratchpad: sp, Shards: s.shards, Pool: par.New(2), Coord: s.mode}
		if s.shards > 1 {
			pl, err := hw.NewPlacement(hw.PlaceStripe, s.topo, s.shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = pl
		}
		return cfg
	}
	randomShape := func() resetShape {
		return resetShape{shards: []int{1, 2, 4}[rng.Intn(3)], policy: cache.LRU, mode: CoordHier, topo: cluster, minSlots: 16, maxSlots: 112}
	}
	s4 := func(mode CoordMode, topo *hw.Topology, minSlots, maxSlots int) resetShape {
		return resetShape{shards: 4, policy: cache.LRU, mode: mode, topo: topo, minSlots: minSlots, maxSlots: maxSlots}
	}
	resharded := resetShape{shards: 1, policy: cache.LRU, mode: CoordHier, topo: cluster, minSlots: 16, maxSlots: 112, reshard: 4}
	cases := []struct {
		name    string
		from    func() resetShape
		to      resetShape
		overlap bool
	}{
		{"S1-lru-exact", randomShape, resetShape{shards: 1, policy: cache.LRU, mode: CoordExact, minSlots: 16, maxSlots: 112}, false},
		{"S1-lfu-exact", randomShape, resetShape{shards: 1, policy: cache.LFU, mode: CoordExact, minSlots: 16, maxSlots: 112}, false},
		{"S1-random-exact", randomShape, resetShape{shards: 1, policy: cache.RandomPolicy, mode: CoordExact, minSlots: 16, maxSlots: 112}, false},
		{"S4-lru-exact", randomShape, s4(CoordExact, cluster, 16, 112), false},
		{"S4-lru-hier", randomShape, s4(CoordHier, cluster, 16, 112), false},
		{"S4-hier-grow", func() resetShape { return s4(CoordHier, cluster, 16, 48) }, s4(CoordHier, cluster, 64, 112), false},
		{"S4-hier-shrink", func() resetShape { return s4(CoordHier, cluster, 64, 112) }, s4(CoordHier, cluster, 16, 48), false},
		{"S4-approx", func() resetShape { return s4(CoordApprox, cluster, 16, 112) }, s4(CoordApprox, cluster, 16, 112), false},
		{"S1-resharded-to-S4", func() resetShape { return resharded }, s4(CoordHier, cluster, 16, 112), false},
		{"S4-cluster-to-numa4", func() resetShape { return s4(CoordHier, cluster, 16, 112) }, s4(CoordHier, numa, 16, 112), false},
		{"S4-spec-parked", func() resetShape { return s4(CoordHier, cluster, 16, 112) }, s4(CoordHier, cluster, 16, 112), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				from := tc.from()
				used, err := New(newCfg(t, from))
				if err != nil {
					t.Fatal(err)
				}
				used.PrewarmRows(idSpace, func() int64 { return rng.Int63n(idSpace) }, nil)
				st := newStream(rng.Int63(), 16, batchLen, idSpace)
				seq := 0
				for ; seq < 2+rng.Intn(8); seq++ {
					future, hints := st.window(seq, 2, 4)
					if _, err := used.PlanWithHints(seq, st.at(seq), future, hints); err != nil {
						t.Fatal(err)
					}
					if seq >= 3 {
						if err := used.Release(seq - 3); err != nil {
							t.Fatal(err)
						}
					}
				}
				if from.reshard > 0 {
					pl, err := hw.NewPlacement(hw.PlaceStripe, from.topo, from.reshard, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := used.Reshard(from.reshard, pl); err != nil {
						t.Fatal(err)
					}
				}
				if tc.overlap {
					uniq, _ := intmap.Dedup(st.at(seq), intmap.New(batchLen), nil, nil)
					used.OverlapNextPlan(uniq)
					if !used.overlapNext {
						t.Fatalf("trial %d: no Plan marked overlapped before the Reset", trial)
					}
				}
				coord := used.coord

				cfg := newCfg(t, tc.to)
				if err := used.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				if coord != nil && tc.to.shards > 1 && from.topo.NumNodes() == tc.to.topo.NumNodes() &&
					(used.coord != coord || used.coord.plane != coord.plane) {
					t.Fatalf("trial %d: Reset onto a same-size placement rebuilt the coordination meter", trial)
				}
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				seed := rng.Int63()
				for _, m := range []*Manager{used, fresh} {
					draw := rand.New(rand.NewSource(seed))
					m.PrewarmRows(idSpace, func() int64 { return draw.Int63n(idSpace) }, nil)
				}
				st = newStream(rng.Int63(), 40, batchLen, idSpace)
				driveSlotLockstep(t, tc.name, used, fresh, st, 40, 2, 4)
				if got, want := observe(used), observe(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: after Reset\n%+v\nfresh manager\n%+v", trial, got, want)
				}
			}
		})
	}
}

// TestResetRejectsBadConfig checks that a failed Reset leaves a manager
// as it was: at one shard and at four, Resets to zero slots, to a bogus
// policy and to a bogus coordination protocol fail, and the manager then
// plans, slot for slot, and reports exactly as a fresh one.
func TestResetRejectsBadConfig(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := Config{Scratchpad: testConfig(128, 32), Shards: shards, Coord: CoordHier}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		zero, policy, coord := cfg, cfg, cfg
		zero.Scratchpad.Slots = 0
		policy.Scratchpad.Policy = "bogus"
		coord.Coord = "bogus"
		for _, bad := range []Config{zero, policy, coord} {
			if err := m.Reset(bad); err == nil {
				t.Fatalf("S=%d: Reset accepted %+v", shards, bad)
			}
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("S=%d after failed Resets", shards)
		driveSlotLockstep(t, label, m, fresh, newStream(3, 16, 32, 512), 40, 2, 4)
		if got, want := observe(m), observe(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n%+v\nfresh manager\n%+v", label, got, want)
		}
	}
}

// managerView bundles everything a Manager reports about its history.
type managerView struct {
	Stats   core.Stats
	Coord   CoordStats
	Overlap OverlapStats
	Shards  []ShardStats
	Reshard ReshardStats
	Walk    [][2]int64
}

func observe(m *Manager) managerView {
	return managerView{m.Stats(), m.CoordStats(), m.OverlapStats(), m.ShardStats(), m.ReshardStats(), walk(m)}
}

// walk lists a manager's resident (ID, slot) pairs in ForEach order.
func walk(m *Manager) [][2]int64 {
	var out [][2]int64
	m.ForEach(func(id int64, slot int32) { out = append(out, [2]int64{id, int64(slot)}) })
	return out
}

// TestResetAllocsIndependentOfCapacity gates the in-place reset: on a
// warm S=4 cluster2x2 hier manager, one Reset -> PrewarmRows -> 16
// Plan/Release/Recycle cycle allocates the same bytes at 1k and at 64k
// slots (within 10%). A reset that rebuilt the slot metadata, Hit-Maps
// or free lists would allocate in proportion to capacity (before the
// in-place reset: 0.39 MB against 5.85 MB).
func TestResetAllocsIndependentOfCapacity(t *testing.T) {
	const batchLen, idSpace, depth = 256, 1 << 20, 4
	cycleBytes := func(slots int) uint64 {
		sp := testConfig(slots, batchLen)
		pl, err := hw.NewPlacement(hw.PlaceStripe, hw.Cluster(2, 2), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Scratchpad: sp, Shards: 4, Placement: pl, Coord: CoordHier}
		st := newStream(1, 16+2, batchLen, idSpace)
		m := &Manager{}
		cycle := func() {
			if err := m.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			m.PrewarmRows(idSpace, func() int64 { return rng.Int63n(idSpace) }, nil)
			var pend []*core.PlanResult
			for seq := 0; seq < 16; seq++ {
				future, _ := st.window(seq, 2, 2)
				res, err := m.Plan(seq, st.at(seq), future)
				if err != nil {
					t.Fatal(err)
				}
				if pend = append(pend, res); len(pend) > depth {
					if err := m.Release(seq - depth); err != nil {
						t.Fatal(err)
					}
					m.Recycle(pend[0])
					pend = pend[1:]
				}
			}
			// The batches left in flight retire unreleased, as when an
			// engine stops: the next Reset drops their holds.
			for _, res := range pend {
				m.Recycle(res)
			}
		}
		// Two warm cycles size every pooled buffer for the workload; the
		// minimum over five measured cycles drops the runtime's own
		// occasional allocations (goroutine stacks for the message plane).
		cycle()
		cycle()
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cycle()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := cycleBytes(1<<10), cycleBytes(1<<16)
	t.Logf("bytes allocated per warm cycle: %d at 1k slots, %d at 64k slots", small, large)
	if lo, hi := min(small, large), max(small, large); float64(hi) > 1.1*float64(lo) {
		t.Fatalf("warm Reset cycle allocates %d B at 1k slots but %d B at 64k: the reset scales with capacity", small, large)
	}
}
