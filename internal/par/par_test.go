package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 8, 100} {
			p := New(workers)
			hits := make([]atomic.Int32, n)
			p.ForEach(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers = %d, want 1", p.Workers())
	}
	order := []int{}
	p.ForEach(5, func(i int) { order = append(order, i) }) // no race: serial
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool ran out of order: %v", order)
		}
	}
}

func TestForEachErrLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.ForEachErr(50, func(i int) error {
			if i%10 == 3 { // fails at 3, 13, 23, ...
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Fatalf("workers=%d: err = %v, want index 3", workers, err)
		}
	}
}

func TestForEachErrAllIndicesRunDespiteError(t *testing.T) {
	p := New(4)
	var ran atomic.Int32
	sentinel := errors.New("boom")
	err := p.ForEachErr(32, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d of 32 indices", ran.Load())
	}
}

func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must resolve to at least 1 worker")
	}
	if New(-3).Workers() < 1 {
		t.Fatal("New(-3) must resolve to at least 1 worker")
	}
}

// TestPanicDoesNotLeakWorkers is the regression test for the fan-out
// shutdown leak: a panic in the caller's inline body used to unwind
// past wg.Wait(), leaving the spawned workers running (and still
// consuming indices) while the caller's recovery handler proceeded.
// The fan-out must contain the panic, drain every worker, and rethrow.
func TestPanicDoesNotLeakWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(8)
	var after atomic.Int32
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate out of ForEachErr")
			}
		}()
		p.ForEachErr(64, func(i int) error {
			if i == 5 {
				panic("stage blew up")
			}
			if i > 5 {
				after.Add(1)
			}
			return nil
		})
	}()
	// Every spawned worker must be gone by the time the rethrown panic
	// reaches the caller — if any were still draining indices, this
	// counter could still be moving and the goroutine count would sit
	// above the baseline.
	settled := after.Load()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked across panic: %d before, %d after", before, g)
	}
	if moved := after.Load(); moved != settled {
		t.Fatalf("workers still consuming indices after rethrow: %d -> %d", settled, moved)
	}
}

// TestPanicLowestIndexWins pins the determinism of the rethrown value
// when several workers panic in the same fan-out: index 0 is always
// handed out before the stop, so with every index panicking the
// rethrown value must be index 0's on any worker count.
func TestPanicLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		p := New(workers)
		func() {
			defer func() {
				if r := recover(); r != "panic 0" {
					t.Fatalf("workers=%d: rethrow = %v, want panic 0", workers, r)
				}
			}()
			p.ForEachErr(32, func(i int) error {
				panic(fmt.Sprintf("panic %d", i))
			})
		}()
	}
}

// sink gives the zero-alloc bodies a side effect without capturing.
var sink atomic.Int64

// TestSerialZeroAllocs pins the hot-path contract on a serial pool: with
// a non-capturing body, ForEach, ForEachErr and Each call it directly
// and allocate nothing.
func TestSerialZeroAllocs(t *testing.T) {
	for _, p := range []*Pool{nil, New(1)} {
		cases := map[string]func(){
			"ForEach":    func() { p.ForEach(8, func(i int) { sink.Add(int64(i)) }) },
			"ForEachErr": func() { _ = p.ForEachErr(8, func(i int) error { sink.Add(int64(i)); return nil }) },
			"Each": func() {
				_ = Each(p, 8, &sink, func(s *atomic.Int64, i int) error { s.Add(int64(i)); return nil })
			},
		}
		for name, run := range cases {
			if got := testing.AllocsPerRun(100, run); got != 0 {
				t.Errorf("workers=%d %s: %.1f allocs per call, want 0", p.Workers(), name, got)
			}
		}
	}
}

// TestEachContract checks Each's argument passing and its error and
// panic rules at Workers=4: every index runs with the argument it was
// given, the lowest failing index's error is returned, and the lowest
// panicking index's value is rethrown.
func TestEachContract(t *testing.T) {
	p := New(4)
	ran := make([]atomic.Int32, 50)
	err := Each(p, len(ran), ran, func(ran []atomic.Int32, i int) error {
		ran[i].Add(1)
		if i%10 == 7 { // fails at 7, 17, 27, ...
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 7" {
		t.Fatalf("err = %v, want index 7", err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "panic 0" {
				t.Fatalf("rethrow = %v, want panic 0", r)
			}
		}()
		_ = Each(p, 32, "panic", func(prefix string, i int) error {
			panic(fmt.Sprintf("%s %d", prefix, i))
		})
	}()
}

// TestConcurrentForEach exercises two simultaneous fan-outs on one pool
// (the parallel pipeline runs several stages' ForEach concurrently).
func TestConcurrentForEach(t *testing.T) {
	p := New(4)
	done := make(chan bool, 2)
	for g := 0; g < 2; g++ {
		go func() {
			var sum atomic.Int64
			p.ForEach(1000, func(i int) { sum.Add(int64(i)) })
			done <- sum.Load() == 999*1000/2
		}()
	}
	for g := 0; g < 2; g++ {
		if !<-done {
			t.Fatal("concurrent ForEach lost updates")
		}
	}
}
