package intmap

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestOracle drives a Map and the built-in map with the same randomized
// operation stream — including the delete/reinsert churn the scratchpad
// produces under eviction pressure — and requires identical observable
// state throughout.
func TestOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(0)
	oracle := map[int64]int32{}
	const keySpace = 512 // small space forces collisions and reinsertion
	for op := 0; op < 200_000; op++ {
		key := int64(rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0, 1: // insert / overwrite
			val := int32(rng.Intn(1 << 20))
			m.Put(key, val)
			oracle[key] = val
		case 2: // delete
			want := false
			if _, ok := oracle[key]; ok {
				want = true
			}
			if got := m.Delete(key); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, oracle %v", op, key, got, want)
			}
			delete(oracle, key)
		case 3: // lookup
			got, ok := m.Get(key)
			want, wok := oracle[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), oracle (%d,%v)", op, key, got, ok, want, wok)
			}
		}
		if op%1777 == 0 { // exercise the O(1) epoch Clear mid-churn
			m.Clear()
			clear(oracle)
		}
		if m.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d, oracle %d", op, m.Len(), len(oracle))
		}
	}
	// Full final sweep.
	for key, want := range oracle {
		got, ok := m.Get(key)
		if !ok || got != want {
			t.Fatalf("final: Get(%d) = (%d,%v), want (%d,true)", key, got, ok, want)
		}
	}
	seen := 0
	m.ForEach(func(k int64, v int32) {
		if want, ok := oracle[k]; !ok || v != want {
			t.Fatalf("ForEach visited (%d,%d) not matching oracle", k, v)
		}
		seen++
	})
	if seen != len(oracle) {
		t.Fatalf("ForEach visited %d entries, oracle has %d", seen, len(oracle))
	}
}

// TestDeleteChains targets the backward-shift deletion on adversarial
// probe chains: many keys colliding into one home slot, deleted from the
// middle of the run.
func TestDeleteChains(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		m := New(16)
		oracle := map[int64]int32{}
		// Dense key block: Fibonacci hashing spreads these, but the
		// small capacity still produces long runs at 3/4 load.
		for i := 0; i < 12; i++ {
			k := int64(rng.Intn(64))
			m.Put(k, int32(k))
			oracle[k] = int32(k)
		}
		// Delete half in random order, verifying the rest after each.
		for k := range oracle {
			if rng.Intn(2) == 0 {
				continue
			}
			m.Delete(k)
			delete(oracle, k)
			for want := range oracle {
				if _, ok := m.Get(want); !ok {
					t.Fatalf("trial %d: key %d lost after deleting %d", trial, want, k)
				}
			}
		}
	}
}

func TestClear(t *testing.T) {
	m := New(4)
	for i := int64(0); i < 100; i++ {
		m.Put(i, int32(i))
	}
	c := m.Cap()
	m.Clear()
	if m.Len() != 0 || m.Cap() != c {
		t.Fatalf("after Clear: Len %d Cap %d, want 0 and %d", m.Len(), m.Cap(), c)
	}
	for i := int64(0); i < 100; i++ {
		if _, ok := m.Get(i); ok {
			t.Fatalf("key %d survived Clear", i)
		}
	}
	// Reuse after Clear.
	m.Put(7, 42)
	if v, ok := m.Get(7); !ok || v != 42 {
		t.Fatalf("Get(7) after Clear+Put = (%d,%v)", v, ok)
	}
}

// TestEpochReuse drives many Clear/refill rounds on one map (the
// PlanResult pool's access pattern) and checks isolation between epochs,
// including growth mid-epoch.
func TestEpochReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(8) // deliberately small: forces stale-slot reuse and growth
	for round := 0; round < 300; round++ {
		oracle := map[int64]int32{}
		for i := 0; i < 50; i++ {
			k := int64(rng.Intn(200))
			v := int32(round*1000 + i)
			m.Put(k, v)
			oracle[k] = v
			if rng.Intn(4) == 0 {
				m.Delete(k)
				delete(oracle, k)
			}
		}
		if m.Len() != len(oracle) {
			t.Fatalf("round %d: Len %d, oracle %d", round, m.Len(), len(oracle))
		}
		for k := int64(0); k < 200; k++ {
			got, ok := m.Get(k)
			want, wok := oracle[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("round %d: Get(%d) = (%d,%v), oracle (%d,%v)", round, k, got, ok, want, wok)
			}
		}
		m.Clear()
		if m.Len() != 0 {
			t.Fatalf("round %d: Len %d after Clear", round, m.Len())
		}
	}
}

// TestResetMatchesNew checks that a used map — grown, churned, cleared —
// Reset to a hint then behaves exactly like New(hint): the same capacity,
// the same entry position for every insert, the same lookups and the
// same ForEach order.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	used := New(0)
	for trial := 0; trial < 60; trial++ {
		for i, n := 0, rng.Intn(300); i < n; i++ {
			used.Put(int64(rng.Intn(500)), int32(i))
			if rng.Intn(5) == 0 {
				used.Delete(int64(rng.Intn(500)))
			}
		}
		if rng.Intn(3) == 0 {
			used.Clear()
		}
		hint := rng.Intn(200)
		used.Reset(hint)
		fresh := New(hint)
		for i := 0; i < 250; i++ {
			k := int64(rng.Intn(500))
			if at, want := used.PutIdx(k, int32(i)), fresh.PutIdx(k, int32(i)); at != want {
				t.Fatalf("trial %d: PutIdx(%d) at %d, fresh map %d", trial, k, at, want)
			}
			if rng.Intn(4) == 0 {
				k := int64(rng.Intn(500))
				if got, want := used.Delete(k), fresh.Delete(k); got != want {
					t.Fatalf("trial %d: Delete(%d) = %v, fresh map %v", trial, k, got, want)
				}
			}
			if used.Len() != fresh.Len() || used.Cap() != fresh.Cap() {
				t.Fatalf("trial %d: Len/Cap %d/%d, fresh map %d/%d", trial, used.Len(), used.Cap(), fresh.Len(), fresh.Cap())
			}
		}
		var got, want [][3]int64
		used.ForEachIdx(func(i int, k int64, v int32) { got = append(got, [3]int64{int64(i), k, int64(v)}) })
		fresh.ForEachIdx(func(i int, k int64, v int32) { want = append(want, [3]int64{int64(i), k, int64(v)}) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ForEachIdx after Reset differs from a fresh map", trial)
		}
	}
}

func TestZeroKeyAndGrowth(t *testing.T) {
	m := New(0)
	m.Put(0, 9) // key 0 must be distinguishable from "empty"
	if v, ok := m.Get(0); !ok || v != 9 {
		t.Fatalf("Get(0) = (%d,%v), want (9,true)", v, ok)
	}
	// Force several doublings.
	for i := int64(0); i < 10_000; i++ {
		m.Put(i, int32(i%777))
	}
	if m.Len() != 10_000 {
		t.Fatalf("Len = %d, want 10000", m.Len())
	}
	for i := int64(0); i < 10_000; i++ {
		if v, ok := m.Get(i); !ok || v != int32(i%777) {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
}

func TestNegativeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(-1) did not panic")
		}
	}()
	New(0).Put(-1, 0)
}

// TestPresizedNoGrowth checks the scratchpad's sizing contract: a map
// built with New(n) never reallocates while holding at most n entries.
func TestPresizedNoGrowth(t *testing.T) {
	const n = 1000
	m := New(n)
	c := m.Cap()
	for round := 0; round < 3; round++ {
		for i := int64(0); i < n; i++ {
			m.Put(i+int64(round)*n, int32(i))
		}
		for i := int64(0); i < n; i++ {
			m.Delete(i + int64(round)*n)
		}
	}
	if m.Cap() != c {
		t.Fatalf("capacity grew from %d to %d despite population <= %d", c, m.Cap(), n)
	}
}

func BenchmarkGetHit(b *testing.B) {
	const n = 4096
	m := New(n)
	for i := int64(0); i < n; i++ {
		m.Put(i*7, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(int64(i%n) * 7)
	}
}

func BenchmarkGetHitStdMap(b *testing.B) {
	const n = 4096
	m := make(map[int64]int32, n)
	for i := int64(0); i < n; i++ {
		m[i*7] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[int64(i%n)*7]
	}
}

func BenchmarkChurn(b *testing.B) {
	const n = 4096
	m := New(n)
	for i := int64(0); i < n; i++ {
		m.Put(i, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % n)
		m.Delete(k)
		m.Put(k+n, int32(k))
		m.Delete(k + n)
		m.Put(k, int32(k))
	}
}
