package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/par"
)

// TestResetMatchesNew is the manager-level differential check behind
// scratchpad reuse: a manager that ran one shape (S = 1, 2 or 4, batches
// left in flight) and was then Reset to a second shape must behave
// exactly like New of the second — every plan including slot numbers,
// then Stats, CoordStats and the ForEach order — at S=1 under each
// policy and at S=4 placed on cluster2x2.
func TestResetMatchesNew(t *testing.T) {
	const batchLen, idSpace = 48, 1024
	topo := hw.Cluster(2, 2)
	rng := rand.New(rand.NewSource(9))
	newCfg := func(t *testing.T, shards int, policy cache.PolicyKind, mode CoordMode) Config {
		sp := testConfig(16+rng.Intn(96), batchLen)
		sp.Policy, sp.PolicySeed = policy, rng.Int63()
		cfg := Config{Scratchpad: sp, Shards: shards, Pool: par.New(2), Coord: mode}
		if shards > 1 {
			pl, err := hw.NewPlacement(hw.PlaceStripe, topo, shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = pl
		}
		return cfg
	}
	targets := []struct {
		shards int
		policy cache.PolicyKind
		mode   CoordMode
	}{
		{1, cache.LRU, CoordExact}, {1, cache.LFU, CoordExact}, {1, cache.RandomPolicy, CoordExact},
		{4, cache.LRU, CoordExact}, {4, cache.LRU, CoordHier},
	}
	for _, tg := range targets {
		label := fmt.Sprintf("S%d-%s-%s", tg.shards, tg.policy, tg.mode)
		t.Run(label, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				used, err := New(newCfg(t, []int{1, 2, 4}[rng.Intn(3)], cache.LRU, CoordHier))
				if err != nil {
					t.Fatal(err)
				}
				used.PrewarmRows(idSpace, func() int64 { return rng.Int63n(idSpace) }, nil)
				st := newStream(rng.Int63(), 16, batchLen, idSpace)
				for seq := 0; seq < 2+rng.Intn(8); seq++ {
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

				cfg := newCfg(t, tg.shards, tg.policy, tg.mode)
				if err := used.Reset(cfg); err != nil {
					t.Fatal(err)
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
				driveSlotLockstep(t, label, used, fresh, st, 40, 2, 4)
				if used.Stats() != fresh.Stats() || used.CoordStats() != fresh.CoordStats() {
					t.Fatalf("trial %d: stats %+v / %+v after Reset, fresh %+v / %+v",
						trial, used.Stats(), used.CoordStats(), fresh.Stats(), fresh.CoordStats())
				}
				if got, want := walk(used), walk(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: ForEach order after Reset differs from a fresh manager", trial)
				}
			}
		})
	}
}

// walk lists a manager's resident (ID, slot) pairs in ForEach order.
func walk(m *Manager) [][2]int64 {
	var out [][2]int64
	m.ForEach(func(id int64, slot int32) { out = append(out, [2]int64{id, int64(slot)}) })
	return out
}
