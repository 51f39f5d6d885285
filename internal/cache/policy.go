// Package cache provides the software-managed GPU embedding cache building
// blocks: the static top-N cache the paper uses as its stronger baseline
// (Figure 4b, after Yin et al.), and the replacement policies (LRU, LFU,
// Random) that the dynamic scratchpad of ScratchPipe selects eviction
// victims with (§VI-E studies all three). Every policy picks victims
// under one contract: a victim sweep, started by BeginVictimSweep,
// examines each slot at most once.
package cache

import (
	"fmt"
	"math"
	"math/rand"
)

// Policy orders cache slots for eviction. Slots are dense indices
// [0, n). The scratchpad manager calls OnInsert when a new key fills a
// slot and OnAccess when a cached key is referenced again.
//
// Victims come only from a sweep. BeginVictimSweep starts one over the
// eviction order as it stands, and each Victim call continues it,
// passing slots to evictable (the caller's hold/pin discipline) and
// returning the first that passes. Within one sweep no slot reaches
// evictable twice, so a whole batch's victim selection costs at most n
// predicate calls; a rejected slot is never offered again, nor is a
// returned victim the caller reinserts. That is sound because within
// one Plan the caller's protected set only grows. Victim returns -1
// once the sweep has no unexamined slot left, and before any sweep has
// begun. The caller must not call OnAccess during a sweep (OnInsert of
// returned victims is fine) and starts a new sweep whenever slots may
// have become evictable again.
type Policy interface {
	// Name identifies the policy in reports ("lru", "lfu", "random").
	Name() string
	// OnInsert records that slot now holds a freshly inserted key.
	OnInsert(slot int)
	// OnAccess records a reference to the key cached in slot.
	OnAccess(slot int)
	// Victim returns the sweep's next evictable slot, or -1.
	Victim(evictable func(slot int) bool) int
	// BeginVictimSweep starts a sweep at the least preferred end of the
	// eviction order.
	BeginVictimSweep()
}

// PolicyKind names a replacement policy for configuration.
type PolicyKind string

const (
	// LRU evicts the least recently used slot (the paper's default).
	LRU PolicyKind = "lru"
	// LFU evicts the least frequently used slot.
	LFU PolicyKind = "lfu"
	// RandomPolicy evicts a uniformly random unprotected slot.
	RandomPolicy PolicyKind = "random"
)

// NewPolicy constructs a policy of the given kind over n slots. The seed
// only matters for RandomPolicy.
func NewPolicy(kind PolicyKind, n int, seed int64) (Policy, error) {
	switch kind {
	case LRU:
		return NewLRUPolicy(n), nil
	case LFU:
		return NewLFUPolicy(n), nil
	case RandomPolicy:
		return NewRandomPolicy(n, seed), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", kind)
}

// lruNode packs a list node's prev/next links into one 8-byte word so an
// unlink/push touches one cache line per node instead of two.
type lruNode struct {
	prev, next int32
}

// LRUPolicy keeps slots in k recency lists: intrusive doubly-linked
// lists in one packed node array, nodes [0, n) for the slots and node
// n+l the sentinel of list l, next pointing toward the most recent end.
// A slot sits on at most one list (an unlinked node points at itself).
// As a Policy it runs list 0. Planners drive the concrete type directly:
// the scratchpad's hot path avoids interface dispatch, and the sharded
// manager keeps one list per shard.
type LRUPolicy struct {
	nodes []lruNode
	n     int
	// sweep is the sweep's next slot (-1 when exhausted or before the
	// first sweep), and last the list's most recent slot when the sweep
	// began: victims reinserted behind it are not examined again.
	sweep, last int32
}

// NewLRUPolicy returns an LRU policy over n slots, all initially in LRU
// order 0..n-1 (slot 0 least recent).
func NewLRUPolicy(n int) Policy {
	p := &LRUPolicy{}
	p.Reset(n)
	return p
}

// Reset reinitialises p over n slots exactly as NewLRUPolicy(n) builds
// it (one list in LRU order 0..n-1, no sweep), reusing the node
// array when its capacity suffices.
func (p *LRUPolicy) Reset(n int) {
	p.ResetLists(n, 1)
	for s := int32(0); s < int32(n); s++ {
		p.pushMRU(0, s)
	}
}

// ResetLists reinitialises p over n slots and k empty lists, every slot
// unlinked and no sweep, reusing the node array when its
// capacity suffices.
func (p *LRUPolicy) ResetLists(n, k int) {
	if cap(p.nodes) < n+k {
		p.nodes = make([]lruNode, n+k)
	}
	p.nodes = p.nodes[:n+k]
	p.n = n
	p.sweep, p.last = -1, -1
	for i := range p.nodes {
		p.nodes[i] = lruNode{prev: int32(i), next: int32(i)}
	}
}

func (p *LRUPolicy) Name() string { return string(LRU) }

func (p *LRUPolicy) unlink(s int32) {
	nd := p.nodes[s]
	p.nodes[nd.prev].next = nd.next
	p.nodes[nd.next].prev = nd.prev
}

func (p *LRUPolicy) pushMRU(list int, s int32) {
	// The MRU position is just before the list's sentinel.
	sent := int32(p.n + list)
	last := p.nodes[sent].prev
	p.nodes[last].next = s
	p.nodes[s] = lruNode{prev: last, next: sent}
	p.nodes[sent].prev = s
}

// Touch moves slot to the most recent end of list, off whichever list
// held it (unlinking an unlinked slot is a no-op).
func (p *LRUPolicy) Touch(list int, slot int32) {
	p.unlink(slot)
	p.pushMRU(list, slot)
}

// Remove takes slot off its list.
func (p *LRUPolicy) Remove(slot int32) {
	p.unlink(slot)
	p.nodes[slot] = lruNode{prev: slot, next: slot}
}

// Front returns list's least recent slot, or -1 when the list is empty.
func (p *LRUPolicy) Front(list int) int32 { return p.Next(int32(p.n + list)) }

// Next returns the node after slot on its list (one step toward the most
// recent end), or -1 at the list's sentinel.
func (p *LRUPolicy) Next(slot int32) int32 {
	if nx := p.nodes[slot].next; int(nx) < p.n {
		return nx
	}
	return -1
}

func (p *LRUPolicy) OnInsert(slot int) { p.Touch(0, int32(slot)) }
func (p *LRUPolicy) OnAccess(slot int) { p.Touch(0, int32(slot)) }

func (p *LRUPolicy) BeginVictimSweep() {
	p.sweep, p.last = p.Front(0), p.nodes[p.n].prev
}

// SweepNext returns the sweep's next candidate (advancing the cursor),
// or -1 when the sweep is exhausted. It lets callers drive the sweep
// with an inlined evictability check; equivalent to Victim with a
// predicate evaluated caller-side.
func (p *LRUPolicy) SweepNext() int {
	s := p.sweep
	switch {
	case s == p.last:
		p.sweep = -1
	case s >= 0:
		p.sweep = p.Next(s)
	}
	return int(s)
}

func (p *LRUPolicy) Victim(evictable func(int) bool) int {
	for s := p.SweepNext(); s >= 0; s = p.SweepNext() {
		if evictable(s) {
			return s
		}
	}
	return -1
}

// lfuPolicy is an amortized-O(1) LFU: frequency buckets, each an intrusive
// list. minFreq only advances past *empty* buckets (a bucket whose slots
// are merely hold-protected right now must stay reachable for later
// victims); maxFreq bounds the upward scan.
type lfuPolicy struct {
	freq             []int64
	prev, next       []int32
	bucketHead       map[int64]int32 // freq -> first slot; chains via next
	minFreq, maxFreq int64
	n                int
	// The sweep's cursor: frequency level and chain position
	// (sweepSlot == -2 means "start of bucket sweepF"); before the first
	// sweep it sits past every level. head1 is bucket 1's head when the
	// sweep began (-1 if empty): inserts land in front of it.
	sweepF           int64
	sweepSlot, head1 int32
}

// NewLFUPolicy returns an LFU policy over n slots, all starting at
// frequency 0.
func NewLFUPolicy(n int) Policy {
	p := &lfuPolicy{
		freq:       make([]int64, n),
		prev:       make([]int32, n),
		next:       make([]int32, n),
		bucketHead: make(map[int64]int32),
		n:          n,
		sweepF:     math.MaxInt64,
	}
	for i := n - 1; i >= 0; i-- {
		p.pushBucket(i, 0)
	}
	return p
}

func (p *lfuPolicy) Name() string { return string(LFU) }

func (p *lfuPolicy) pushBucket(s int, f int64) {
	head, ok := p.bucketHead[f]
	p.prev[s] = -1
	if ok {
		p.next[s] = head
		p.prev[head] = int32(s)
	} else {
		p.next[s] = -1
	}
	p.bucketHead[f] = int32(s)
}

func (p *lfuPolicy) removeFromBucket(s int) {
	f := p.freq[s]
	if p.prev[s] >= 0 {
		p.next[p.prev[s]] = p.next[s]
	} else {
		if p.next[s] >= 0 {
			p.bucketHead[f] = p.next[s]
		} else {
			delete(p.bucketHead, f)
		}
	}
	if p.next[s] >= 0 {
		p.prev[p.next[s]] = p.prev[s]
	}
}

func (p *lfuPolicy) bump(s int) {
	p.removeFromBucket(s)
	p.freq[s]++
	p.pushBucket(s, p.freq[s])
	if p.freq[s] > p.maxFreq {
		p.maxFreq = p.freq[s]
	}
}

func (p *lfuPolicy) OnAccess(slot int) { p.bump(slot) }

func (p *lfuPolicy) OnInsert(slot int) {
	// A newly inserted key starts its frequency over at 1.
	p.removeFromBucket(slot)
	p.freq[slot] = 1
	p.pushBucket(slot, 1)
	if p.minFreq > 1 {
		p.minFreq = 1
	}
	if p.maxFreq < 1 {
		p.maxFreq = 1
	}
}

func (p *lfuPolicy) BeginVictimSweep() {
	p.sweepF, p.sweepSlot = p.minFreq, -2
	p.head1 = -1
	if h, ok := p.bucketHead[1]; ok {
		p.head1 = h
	}
}

func (p *lfuPolicy) Victim(evictable func(int) bool) int {
	f, s := p.sweepF, p.sweepSlot
	for ; f <= p.maxFreq; f, s = f+1, -2 {
		if s == -2 {
			head, ok := p.bucketHead[f]
			if !ok {
				// Empty buckets contiguous with minFreq can
				// never refill below a future insert's
				// frequency of 1, so skipping them permanently
				// is safe.
				if f == p.minFreq {
					p.minFreq++
				}
				continue
			}
			if s = head; f == 1 {
				// Skip the slots inserted since the sweep began.
				s = p.head1
			}
		}
		for ; s >= 0; s = p.next[s] {
			if evictable(int(s)) {
				p.sweepF, p.sweepSlot = f, p.next[s]
				return int(s)
			}
		}
	}
	p.sweepF, p.sweepSlot = f, -2
	return -1
}

// randomPolicy draws victims uniformly without replacement: perm holds
// every slot, and a sweep's unexamined slots are its prefix perm[:left].
// Each draw picks from that prefix and swaps the pick out of it (a
// partial Fisher–Yates shuffle), so a sweep costs at most n draws.
type randomPolicy struct {
	rng  *rand.Rand
	perm []int32
	left int
}

// NewRandomPolicy returns a random-eviction policy over n slots.
func NewRandomPolicy(n int, seed int64) Policy {
	p := &randomPolicy{rng: rand.New(rand.NewSource(seed)), perm: make([]int32, n)}
	for s := range p.perm {
		p.perm[s] = int32(s)
	}
	return p
}

func (p *randomPolicy) Name() string      { return string(RandomPolicy) }
func (p *randomPolicy) OnInsert(int)      {}
func (p *randomPolicy) OnAccess(int)      {}
func (p *randomPolicy) BeginVictimSweep() { p.left = len(p.perm) }

func (p *randomPolicy) Victim(evictable func(int) bool) int {
	for p.left > 0 {
		i := p.rng.Intn(p.left)
		p.left--
		s := p.perm[i]
		p.perm[i], p.perm[p.left] = p.perm[p.left], s
		if evictable(int(s)) {
			return int(s)
		}
	}
	return -1
}
