package cache

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func all(int) bool { return true }

// fresh starts a sweep on p and returns its first victim.
func fresh(p Policy, evictable func(int) bool) int {
	p.BeginVictimSweep()
	return p.Victim(evictable)
}

func TestNewPolicy(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, LFU, RandomPolicy} {
		p, err := NewPolicy(kind, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.Name() != string(kind) {
			t.Errorf("%s: Name() = %s", kind, p.Name())
		}
	}
	if _, err := NewPolicy("bogus", 8, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestLRUOrder(t *testing.T) {
	p := NewLRUPolicy(4)
	// Initial order: 0 is LRU.
	if v := fresh(p, all); v != 0 {
		t.Fatalf("initial victim %d", v)
	}
	p.OnAccess(0)
	if v := fresh(p, all); v != 1 {
		t.Fatalf("victim after touch(0) = %d", v)
	}
	p.OnAccess(1)
	p.OnAccess(2)
	p.OnAccess(3)
	// Now 0 is LRU again.
	if v := fresh(p, all); v != 0 {
		t.Fatalf("victim = %d", v)
	}
	// Inserts count as most-recent too.
	p.OnInsert(0)
	if v := fresh(p, all); v != 1 {
		t.Fatalf("victim after insert(0) = %d", v)
	}
}

// TestLRUResetMatchesNew checks that a used, mid-sweep LRU list Reset to
// n slots has NewLRUPolicy(n)'s order and sweep state.
func TestLRUResetMatchesNew(t *testing.T) {
	order := func(p *LRUPolicy) []int {
		var out []int
		p.BeginVictimSweep()
		for v := p.SweepNext(); v >= 0; v = p.SweepNext() {
			out = append(out, v)
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 16, 40} {
		used := NewLRUPolicy(16).(*LRUPolicy)
		for i := 0; i < 50; i++ {
			used.OnAccess(rng.Intn(16))
		}
		used.BeginVictimSweep()
		used.SweepNext()
		used.Reset(n)
		built := NewLRUPolicy(n).(*LRUPolicy)
		for _, p := range []*LRUPolicy{used, built} {
			p.OnAccess(0)
			p.OnInsert(n - 1)
		}
		if got := used.Victim(all); got != -1 {
			t.Fatalf("n=%d: victim %d after Reset, before any sweep", n, got)
		}
		if got, want := order(used), order(built); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: order after Reset %v, new %v", n, got, want)
		}
	}
}

// TestLRUOneListMatchesModel: with one list, the packed multi-list LRU
// reproduces a slice-backed reference LRU's victim sequence — a sweep's
// first victim, and whole sweeps whose victims are reinserted as a
// planner does — over random touches and random protection masks.
func TestLRUOneListMatchesModel(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(3))
	p := NewLRUPolicy(n)
	var model []int // least recent first
	for s := 0; s < n; s++ {
		model = append(model, s)
	}
	touch := func(s int) {
		i := slices.Index(model, s)
		model = append(slices.Delete(model, i, i+1), s)
	}
	for step := 0; step < 2000; step++ {
		mask := rng.Uint32()
		pred := func(s int) bool { return mask&(1<<uint(s)) != 0 }
		switch rng.Intn(4) {
		case 0:
			s := rng.Intn(n)
			p.OnAccess(s)
			touch(s)
		case 1:
			s := rng.Intn(n)
			p.OnInsert(s)
			touch(s)
		case 2:
			want := -1
			if i := slices.IndexFunc(model, pred); i >= 0 {
				want = model[i]
			}
			// Sweep a copy, leaving p's own sweep where it was.
			q := &LRUPolicy{nodes: slices.Clone(p.(*LRUPolicy).nodes), n: n}
			if got := fresh(q, pred); got != want {
				t.Fatalf("step %d: first victim %d, model %d", step, got, want)
			}
		case 3:
			var want []int
			for _, s := range model {
				if pred(s) {
					want = append(want, s)
				}
			}
			// A reinserted victim is held for its batch: no longer evictable.
			var got []int
			held := func(s int) bool { return pred(s) && !slices.Contains(got, s) }
			p.BeginVictimSweep()
			for v := p.Victim(held); v >= 0; v = p.Victim(held) {
				got = append(got, v)
				p.OnInsert(v)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: sweep victims %v, model %v", step, got, want)
			}
			for _, v := range got {
				touch(v)
			}
		}
	}
}

// TestLRUListsKeepTouchOrder: across k lists with random touches (which
// move a slot between lists) and removals, each list holds exactly the
// slots last touched onto it, in increasing touch order, and the Policy
// sweep walks list 0 alone.
func TestLRUListsKeepTouchOrder(t *testing.T) {
	const n, k = 40, 4
	rng := rand.New(rand.NewSource(8))
	p := &LRUPolicy{}
	p.ResetLists(n, k)
	list := make([]int, n) // slot -> list, -1 when unlinked
	when := make([]int, n) // slot -> step of its last touch
	for s := range list {
		list[s] = -1
	}
	for step := 0; step < 3000; step++ {
		s := int32(rng.Intn(n))
		if rng.Intn(5) == 0 {
			p.Remove(s)
			list[s] = -1
		} else {
			l := rng.Intn(k)
			p.Touch(l, s)
			list[s], when[s] = l, step
		}
		if step%100 != 99 {
			continue
		}
		for l := 0; l < k; l++ {
			var want []int32
			for s := range list {
				if list[s] == l {
					want = append(want, int32(s))
				}
			}
			slices.SortFunc(want, func(a, b int32) int { return when[a] - when[b] })
			var got []int32
			for s := p.Front(l); s >= 0; s = p.Next(s) {
				got = append(got, s)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: list %d walks %v, want %v", step, l, got, want)
			}
			if l != 0 {
				continue
			}
			var swept []int32
			p.BeginVictimSweep()
			for v := p.SweepNext(); v >= 0; v = p.SweepNext() {
				swept = append(swept, int32(v))
			}
			if !slices.Equal(swept, want) {
				t.Fatalf("step %d: sweep walks %v, want list 0's %v", step, swept, want)
			}
		}
	}
}

func TestLRUVictimRespectsPredicate(t *testing.T) {
	p := NewLRUPolicy(4)
	blocked := map[int]bool{0: true, 1: true}
	v := fresh(p, func(s int) bool { return !blocked[s] })
	if v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	if v := fresh(p, func(int) bool { return false }); v != -1 {
		t.Fatalf("victim with nothing evictable = %d, want -1", v)
	}
}

func TestLFUPrefersColdSlots(t *testing.T) {
	p := NewLFUPolicy(3)
	p.OnInsert(0) // freq 1
	p.OnInsert(1) // freq 1
	p.OnInsert(2) // freq 1
	p.OnAccess(0)
	p.OnAccess(0)
	p.OnAccess(1)
	// Slot 2 has the lowest frequency.
	if v := fresh(p, all); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	// After re-inserting into 2 and hammering it, 1 is coldest.
	p.OnInsert(2)
	p.OnAccess(2)
	p.OnAccess(2)
	if v := fresh(p, func(s int) bool { return s != 1 }); v == 1 {
		t.Fatal("predicate ignored")
	}
	if v := fresh(p, all); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestLFUInsertResetsFrequency(t *testing.T) {
	p := NewLFUPolicy(2)
	p.OnInsert(0)
	for i := 0; i < 10; i++ {
		p.OnAccess(0)
	}
	p.OnInsert(1)
	if v := fresh(p, all); v != 1 {
		t.Fatalf("victim = %d, want fresh slot 1", v)
	}
	// Re-insert over slot 0: frequency restarts at 1, tying slot 1; the
	// victim must be one of them, not a crash.
	p.OnInsert(0)
	if v := fresh(p, all); v != 0 && v != 1 {
		t.Fatalf("victim = %d", v)
	}
}

func TestRandomPolicyTermination(t *testing.T) {
	p := NewRandomPolicy(8, 3)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := fresh(p, all)
		if v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 4 {
		t.Errorf("random victims not spread: %v", seen)
	}
	if v := fresh(p, func(s int) bool { return s == 5 }); v != 5 {
		t.Fatalf("constrained victim = %d", v)
	}
	if v := fresh(p, func(int) bool { return false }); v != -1 {
		t.Fatalf("impossible victim = %d", v)
	}
}

// TestPolicyVictimAlwaysEvictableProperty: whatever the access history,
// Victim only returns slots passing the predicate (or -1).
func TestPolicyVictimAlwaysEvictableProperty(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, LFU, RandomPolicy} {
		kind := kind
		f := func(ops []uint8, mask uint8) bool {
			const n = 8
			p, err := NewPolicy(kind, n, 7)
			if err != nil {
				return false
			}
			for _, op := range ops {
				slot := int(op) % n
				if op%2 == 0 {
					p.OnAccess(slot)
				} else {
					p.OnInsert(slot)
				}
			}
			pred := func(s int) bool { return mask&(1<<uint(s%8)) != 0 }
			v := fresh(p, pred)
			if v == -1 {
				// Only legal if nothing is evictable.
				for s := 0; s < n; s++ {
					if pred(s) {
						return false
					}
				}
				return true
			}
			return pred(v)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// TestPolicySweepContract holds every policy to the one victim-sweep
// contract. Over random access histories it runs sweeps whose evictable
// set only shrinks, as within one Plan: each victim is reinserted and
// held, and other slots drop out. A sweep must offer no slot to the
// predicate twice (so at most n calls), return only slots that pass it,
// and return -1 only once no evictable slot is left unexamined, and at
// once thereafter. Victim outside any sweep returns -1. Random's first
// victim must be uniform over the evictable slots.
func TestPolicySweepContract(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, LFU, RandomPolicy} {
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(24)
				p, err := NewPolicy(kind, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 4; round++ {
					for i := rng.Intn(3 * n); i > 0; i-- {
						if s := rng.Intn(n); rng.Intn(2) == 0 {
							p.OnAccess(s)
						} else {
							p.OnInsert(s)
						}
					}
					if round == 0 {
						if v := p.Victim(all); v != -1 {
							t.Fatalf("seed %d: victim %d before any sweep", seed, v)
						}
					}
					checkSweep(t, fmt.Sprintf("seed %d round %d", seed, round), p, n, rng)
				}
			}
		})
	}
	t.Run("uniform", func(t *testing.T) {
		const n, trials = 16, 4000
		evictable := []int{1, 4, 9, 10, 15}
		counts := make(map[int]int)
		for seed := int64(0); seed < trials; seed++ {
			p := NewRandomPolicy(n, seed)
			counts[fresh(p, func(s int) bool { return slices.Contains(evictable, s) })]++
		}
		k := float64(len(evictable))
		mean := trials / k
		bound := 4 * math.Sqrt(trials*(1/k)*(1-1/k))
		for _, s := range evictable {
			if d := math.Abs(float64(counts[s]) - mean); d > bound {
				t.Errorf("slot %d first victim %d times in %d sweeps, want %.0f ± %.0f", s, counts[s], trials, mean, bound)
			}
		}
		if len(counts) != len(evictable) {
			t.Errorf("first victims %v, want only evictable slots", counts)
		}
	})
}

// checkSweep runs one sweep of p over a random, shrinking evictable set
// and checks it against the sweep contract.
func checkSweep(t *testing.T, label string, p Policy, n int, rng *rand.Rand) {
	t.Helper()
	ok := make([]bool, n)
	for s := range ok {
		ok[s] = rng.Intn(3) != 0
	}
	seen := make([]bool, n)
	calls := 0
	pred := func(s int) bool {
		if s < 0 || s >= n || seen[s] {
			t.Fatalf("%s: slot %d offered twice or out of [0,%d)", label, s, n)
		}
		seen[s] = true
		calls++
		return ok[s]
	}
	p.BeginVictimSweep()
	for {
		v := p.Victim(pred)
		if v < 0 {
			break
		}
		if !seen[v] || !ok[v] {
			t.Fatalf("%s: victim %d not an examined evictable slot", label, v)
		}
		p.OnInsert(v)
		ok[v] = false
		if s := rng.Intn(n); rng.Intn(4) == 0 {
			ok[s] = false
		}
	}
	for s := range ok {
		if ok[s] && !seen[s] {
			t.Fatalf("%s: -1 with evictable slot %d unexamined", label, s)
		}
	}
	if before := calls; p.Victim(pred) != -1 || calls != before {
		t.Fatalf("%s: an exhausted sweep examined more slots", label)
	}
}
