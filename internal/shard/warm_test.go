package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// warmView is everything a prewarm leaves behind: Hit-Map membership
// over the whole ID space, every slot's key, each recency list front to
// back, the touch stamps and the manager's statistics.
type warmView struct {
	Hit     []bool
	Keys    []int64
	Lists   [][]int32
	Stamps  []uint64
	Observe managerView
}

func viewWarm(m *Manager, idSpace int64) warmView {
	v := warmView{Stamps: slices.Clone(m.stamp), Observe: observe(m)}
	for id := int64(0); id < idSpace; id++ {
		v.Hit = append(v.Hit, m.Contains(id))
	}
	for s := 0; s < m.TotalSlots(); s++ {
		v.Keys = append(v.Keys, m.Key(int32(s)))
	}
	if lru := m.LRU(); lru != nil {
		for j := 0; j < m.Shards(); j++ {
			var list []int32
			for s := lru.Front(j); s >= 0; s = lru.Next(s) {
				list = append(list, s)
			}
			v.Lists = append(v.Lists, list)
		}
	}
	return v
}

// headHeavyDraws is a prewarm stream over [0, idSpace) that sends nine
// draws in ten to a 64-row head, so the larger capacities run out of
// draws before slots.
func headHeavyDraws(seed, idSpace int64, count *int) func() int64 {
	rng := rand.New(rand.NewSource(seed))
	return func() int64 {
		*count++
		if rng.Intn(10) != 0 {
			return rng.Int63n(64)
		}
		return rng.Int63n(idSpace)
	}
}

// TestPrewarmFromMatchesPrewarmRows holds a replayed prewarm to the drawn
// one: one record serves capacities asked for in ascending, descending
// and random order, each replayed into one manager Reset per capacity
// (as a sweep reuses its planners), and every replay must leave the
// Hit-Map, slot keys, recency lists, stamps and statistics of
// PrewarmRows with the same stream on a fresh manager, then plan slot
// for slot like it. It runs at S=1 under LRU, LFU and random, and at
// S=4 under LRU. The capacities include ones whose draw limit binds
// before their slots run out, which only the record's late draws decide.
func TestPrewarmFromMatchesPrewarmRows(t *testing.T) {
	const idSpace, batchLen, seed = 4096, 32, 11
	caps := []int{1, 64, 300, 700, 1200, 2000, 3000, 4000}
	descending, shuffled := slices.Clone(caps), slices.Clone(caps)
	slices.Reverse(descending)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	orders := []struct {
		name string
		caps []int
	}{{"ascending", caps}, {"descending", descending}, {"random", shuffled}}
	bound := 0
	for _, shape := range []struct {
		shards int
		policy cache.PolicyKind
	}{{1, cache.LRU}, {1, cache.LFU}, {1, cache.RandomPolicy}, {4, cache.LRU}} {
		for _, order := range orders {
			label := fmt.Sprintf("S=%d/%s/%s", shape.shards, shape.policy, order.name)
			var recDraws int
			rec, err := NewPrewarmRecord(idSpace, headHeavyDraws(seed, idSpace, &recDraws))
			if err != nil {
				t.Fatal(err)
			}
			replayed := &Manager{}
			for _, c := range order.caps {
				cfg := Config{Scratchpad: testConfig(c, batchLen), Shards: shape.shards, Coord: CoordHier}
				cfg.Scratchpad.Policy, cfg.Scratchpad.PolicySeed, cfg.Scratchpad.Rows = shape.policy, 3, idSpace
				if err := replayed.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				drawn, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := replayed.PrewarmFrom(rec, nil)
				var draws int
				want := drawn.PrewarmRows(idSpace, headHeavyDraws(seed, idSpace, &draws), nil)
				if gv, wv := viewWarm(replayed, idSpace), viewWarm(drawn, idSpace); got != want || !reflect.DeepEqual(gv, wv) {
					t.Fatalf("%s cap %d: replay inserted %d rows\n%+v\ndrawn %d rows\n%+v", label, c, got, gv, want, wv)
				}
				if want < c && draws == 8*c+100 {
					bound++
				}
				driveSlotLockstep(t, fmt.Sprintf("%s cap %d", label, c), replayed, drawn, newStream(seed, 24, batchLen, idSpace), 24, 2, 4)
			}
			if want := 8*slices.Max(caps) + 100; recDraws > want {
				t.Fatalf("%s: the record made %d draws, beyond the largest prewarm's limit %d", label, recDraws, want)
			}
		}
	}
	if bound < 3*len(orders)*4 { // at least three capacities per run
		t.Fatalf("only %d prewarms ran out of draws before slots: the late draws went unchecked", bound)
	}
	// Every capacity up to 1100, in random order, replayed from one
	// record by two goroutines: the draw limit binds a few rows short of
	// the slots at some capacities.
	rec, err := NewPrewarmRecord(idSpace, headHeavyDraws(seed, idSpace, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(6)).Perm(1100)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Manager{}
			for _, c := range perm[g*550 : (g+1)*550] {
				cfg := Config{Scratchpad: testConfig(c+1, batchLen)}
				cfg.Scratchpad.Rows = idSpace
				drawn, err := New(cfg)
				if err == nil {
					err = m.Reset(cfg)
				}
				if err != nil {
					t.Error(err)
					return
				}
				want := drawn.PrewarmRows(idSpace, headHeavyDraws(seed, idSpace, new(int)), nil)
				if got := m.PrewarmFrom(rec, nil); got != want || !reflect.DeepEqual(walk(m), walk(drawn)) {
					t.Errorf("cap %d: replay inserted %d rows %v, drawn %d rows %v", c+1, got, walk(m), want, walk(drawn))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPrewarmRecordCutsSweepDraws counts the prewarm draws of the quick
// Figure 13 sweep (bench.Quick: seed 42, 8 tables of 200 000 rows, the
// cache fractions 2-10%, a straw-man and a ScratchPipe prewarm at each)
// with each prewarm drawing its own stream, against replaying one record
// per class and table: the record must cut them at least 5x.
func TestPrewarmRecordCutsSweepDraws(t *testing.T) {
	const rows, tables, seed = 200_000, 8, 42
	fracs := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
	drawn, recorded := 0, 0
	m := &Manager{}
	for _, class := range trace.Classes {
		dist, err := trace.NewClassDistribution(class, rows)
		if err != nil {
			t.Fatal(err)
		}
		for tb := 0; tb < tables; tb++ {
			stream := func(count *int) func() int64 {
				rng := rand.New(rand.NewSource(seed + int64(3000+tb)))
				return func() int64 { *count++; return dist.Sample(rng) }
			}
			rec, err := NewPrewarmRecord(rows, stream(&recorded))
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range slices.Backward(fracs) {
				cfg := Config{Scratchpad: testConfig(int(frac*rows), 2048)}
				cfg.Scratchpad.Rows = rows
				for range 2 { // straw-man, then ScratchPipe
					if err := m.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					m.PrewarmRows(rows, stream(&drawn), nil)
					if err := m.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					m.PrewarmFrom(rec, nil)
				}
			}
		}
	}
	t.Logf("prewarm draws per quick Figure 13 sweep: %d drawn, %d recorded (%.1fx)", drawn, recorded, float64(drawn)/float64(recorded))
	if drawn < 5*recorded {
		t.Fatalf("recording cut the sweep's prewarm draws from %d to %d, under 5x", drawn, recorded)
	}
}
