package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func all(int) bool { return true }

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
	if v := p.Victim(all); v != 0 {
		t.Fatalf("initial victim %d", v)
	}
	p.OnAccess(0)
	if v := p.Victim(all); v != 1 {
		t.Fatalf("victim after touch(0) = %d", v)
	}
	p.OnAccess(1)
	p.OnAccess(2)
	p.OnAccess(3)
	// Now 0 is LRU again.
	if v := p.Victim(all); v != 0 {
		t.Fatalf("victim = %d", v)
	}
	// Inserts count as most-recent too.
	p.OnInsert(0)
	if v := p.Victim(all); v != 1 {
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
		fresh := NewLRUPolicy(n).(*LRUPolicy)
		for _, p := range []*LRUPolicy{used, fresh} {
			p.OnAccess(0)
			p.OnInsert(n - 1)
		}
		if got, want := used.Victim(all), fresh.Victim(all); got != want {
			t.Fatalf("n=%d: standalone victim after Reset %d, fresh %d", n, got, want)
		}
		if got, want := order(used), order(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: order after Reset %v, fresh %v", n, got, want)
		}
	}
}

func TestLRUVictimRespectsPredicate(t *testing.T) {
	p := NewLRUPolicy(4)
	blocked := map[int]bool{0: true, 1: true}
	v := p.Victim(func(s int) bool { return !blocked[s] })
	if v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	if v := p.Victim(func(int) bool { return false }); v != -1 {
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
	if v := p.Victim(all); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	// After re-inserting into 2 and hammering it, 1 is coldest.
	p.OnInsert(2)
	p.OnAccess(2)
	p.OnAccess(2)
	if v := p.Victim(func(s int) bool { return s != 1 }); v == 1 {
		t.Fatal("predicate ignored")
	}
	if v := p.Victim(all); v != 1 {
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
	if v := p.Victim(all); v != 1 {
		t.Fatalf("victim = %d, want fresh slot 1", v)
	}
	// Re-insert over slot 0: frequency restarts at 1, tying slot 1; the
	// victim must be one of them, not a crash.
	p.OnInsert(0)
	if v := p.Victim(all); v != 0 && v != 1 {
		t.Fatalf("victim = %d", v)
	}
}

func TestRandomPolicyTermination(t *testing.T) {
	p := NewRandomPolicy(8, 3)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := p.Victim(all)
		if v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 4 {
		t.Errorf("random victims not spread: %v", seen)
	}
	if v := p.Victim(func(s int) bool { return s == 5 }); v != 5 {
		t.Fatalf("constrained victim = %d", v)
	}
	if v := p.Victim(func(int) bool { return false }); v != -1 {
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
			v := p.Victim(pred)
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
