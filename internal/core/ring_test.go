package core

import "testing"

// TestBatchRingReusesBuffer: a long push/pop stream at a fixed depth must
// reuse the ring's buffer in place instead of growing it, and hand the
// retired hold sets back through Spare.
func TestBatchRingReusesBuffer(t *testing.T) {
	const depth = 3
	var r BatchRing
	for seq := 0; seq < 1000; seq++ {
		held := append(r.Spare(4), int32(seq))
		r.Push(HeldBatch{Seq: seq, Slots: held})
		if r.Len() < depth {
			continue
		}
		old := seq - depth + 1
		if got := r.Front().Seq; got != old {
			t.Fatalf("front %d, want %d (FIFO)", got, old)
		}
		r.recycle(r.pop().Slots)
	}
	if n := len(r.buf); n > 8 {
		t.Fatalf("ring buffer grew to %d entries for depth %d", n, depth)
	}
	if n := len(r.pool); n != 1 {
		t.Fatalf("%d hold sets pooled, want 1 (each Spare reuses the last)", n)
	}
}
