// Package par provides the shared worker pool the engines use to fan
// per-table work across CPUs. Embedding tables are independent (separate
// scratchpad managers, separate storage arrays, separate CPU tables), so
// every per-table stage loop parallelizes without locks; the pool gives
// all engines one Workers knob and one deterministic fan-out shape.
//
// Determinism contract: ForEach callers write per-index results into
// preallocated slots and reduce serially in index order afterward, so a
// parallel run produces bit-identical output to Workers=1 (the
// equivalence tests rely on this).
//
// Hot-path contract: a fan-out that runs on every Plan or pipeline beat
// passes its state as [Each]'s argument and a body that captures
// nothing — a method expression such as (*T).step or a func literal that
// names no outer variable. Never capture the state in the body: a
// capturing closure escapes (the parallel path hands it to goroutines),
// so it costs a heap allocation on every call, even on a serial pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the parallelism of ForEach fan-outs. The zero-size (nil)
// pool degrades to serial execution, so callers never need a nil check.
// Goroutines are spawned per call rather than parked permanently: the
// fan-out granularity is one pipeline stage (microseconds of work per
// table), so spawn cost is negligible, and pools need no lifecycle
// management — an Env can be dropped without leaking workers.
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks concurrently;
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the configured parallelism (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n), using up to Workers()
// goroutines (the caller participates). It returns when all calls have
// completed.
func (p *Pool) ForEach(n int, fn func(i int)) {
	_ = Each(p, n, fn, func(fn func(int), i int) error {
		fn(i)
		return nil
	})
}

// ForEachErr is ForEach over a fallible body (see Each for the error
// and panic rules).
func (p *Pool) ForEachErr(n int, fn func(i int) error) error {
	return Each(p, n, fn, func(fn func(int) error, i int) error { return fn(i) })
}

// Each runs fn(arg, i) for every i in [0, n) on up to p.Workers()
// goroutines (the caller participates) and returns when all calls have
// completed. A serial pool calls fn directly, so a non-capturing fn
// makes the whole fan-out allocation-free there. Every index runs even
// when some fail; the returned error is the failing call with the lowest
// index, which keeps error reporting deterministic under parallelism. A
// panicking call stops the hand-out of further indices, and once every
// worker has drained, the panic of the lowest panicking index is
// rethrown on the caller's goroutine.
func Each[T any](p *Pool, n int, arg T, fn func(T, int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(p.Workers(), n)
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(arg, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	var next atomic.Int64
	var mu sync.Mutex
	firstIdx := n
	var firstErr error
	panicIdx := n
	var panicVal any
	body := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err, pv, panicked := protect(fn, arg, i)
			if panicked {
				// A panic must not unwind through the fan-out: if it
				// escaped the caller's inline body here, wg.Wait()
				// would be skipped and the spawned workers would keep
				// mutating shared state while the caller's recovery
				// handler runs. Park it, stop handing out indices, and
				// let the caller rethrow after every worker has
				// drained. The lowest panicking index wins, keeping the
				// rethrown value deterministic under parallelism like
				// the error path.
				mu.Lock()
				if i < panicIdx {
					panicIdx, panicVal = i, pv
				}
				mu.Unlock()
				next.Store(int64(n))
				return
			}
			if err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 0; k < w-1; k++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body() // the caller is worker 0
	wg.Wait()
	if panicIdx < n {
		panic(panicVal)
	}
	return firstErr
}

// protect runs fn(arg, i), converting a panic into a value instead of
// letting it unwind (panicked distinguishes panic(nil) from no panic).
func protect[T any](fn func(T, int) error, arg T, i int) (err error, pv any, panicked bool) {
	defer func() {
		if panicked {
			pv = recover()
		}
	}()
	panicked = true
	err = fn(arg, i)
	panicked = false
	return
}
