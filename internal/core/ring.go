package core

import "slices"

// HeldBatch is one in-flight batch's hold set: the slots the batch
// protects from eviction until it is released.
type HeldBatch struct {
	Seq   int
	Slots []int32
}

// BatchRing is a growable FIFO of HeldBatch with a pool of retired hold
// sets, one per Pad. A naive slice-header FIFO (`q = q[1:]`) pins the
// whole backing array and leaks one slot per release for the lifetime of
// the run; the ring reuses its buffer in place, and Frame.ReleaseBatch
// hands retired hold sets back to Spare.
type BatchRing struct {
	buf  []HeldBatch
	head int
	n    int
	pool [][]int32
}

// Spare pops a retired hold-set buffer with room for n slots, growing it
// (or building one when the pool is empty) only when it is smaller.
func (r *BatchRing) Spare(n int) []int32 {
	var buf []int32
	if k := len(r.pool); k > 0 {
		buf = r.pool[k-1]
		r.pool[k-1] = nil
		r.pool = r.pool[:k-1]
	}
	return slices.Grow(buf[:0], n)
}

// recycle returns a retired hold set to the pool.
func (r *BatchRing) recycle(slots []int32) {
	if slots != nil {
		r.pool = append(r.pool, slots)
	}
}

// Clear drops every queued batch, returning its hold set to the pool.
func (r *BatchRing) Clear() {
	for r.n > 0 {
		r.recycle(r.pop().Slots)
	}
}

// Len returns the number of queued batches.
func (r *BatchRing) Len() int { return r.n }

// Push appends hb at the back of the FIFO.
func (r *BatchRing) Push(hb HeldBatch) {
	if r.n == len(r.buf) {
		grown := make([]HeldBatch, 2*len(r.buf)+1)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = hb
	r.n++
}

// Front returns the oldest batch; callers must check Len() > 0.
func (r *BatchRing) Front() HeldBatch { return r.buf[r.head] }

// At returns the i-th queued batch in FIFO order (0 = oldest); callers
// must check 0 <= i < Len(). The sharded manager's reshard path walks
// every shard's ring with it to re-bucket in-flight hold sets under a
// new hash partition.
func (r *BatchRing) At(i int) HeldBatch { return r.buf[(r.head+i)%len(r.buf)] }

// pop removes and returns the oldest batch.
func (r *BatchRing) pop() HeldBatch {
	hb := r.buf[r.head]
	r.buf[r.head] = HeldBatch{} // drop the slots reference
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return hb
}
