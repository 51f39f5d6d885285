// Package cache provides the software-managed GPU embedding cache building
// blocks: the static top-N cache the paper uses as its stronger baseline
// (Figure 4b, after Yin et al.), and the replacement policies (LRU, LFU,
// Random) that the dynamic scratchpad of ScratchPipe selects eviction
// victims with (§VI-E studies all three).
package cache

import (
	"fmt"
	"math/rand"
)

// Policy orders cache slots for eviction. Slots are dense indices
// [0, n). The scratchpad manager calls OnInsert when a new key fills a
// slot, OnAccess when a cached key is referenced again, and Victim to pick
// an eviction candidate among slots for which evictable returns true
// (the hold-mask discipline is enforced by the caller through that
// predicate, not by the policy).
type Policy interface {
	// Name identifies the policy in reports ("lru", "lfu", "random").
	Name() string
	// OnInsert records that slot now holds a freshly inserted key.
	OnInsert(slot int)
	// OnAccess records a reference to the key cached in slot.
	OnAccess(slot int)
	// Victim returns an evictable slot to reuse, or -1 if every slot is
	// currently protected.
	Victim(evictable func(slot int) bool) int
	// BeginVictimSweep arms sweep mode for a burst of Victim calls
	// during which no slot can *become* evictable (the scratchpad's
	// hold/pin sets only grow within one Plan). In sweep mode the
	// policy walks its eviction order exactly once, never re-examining
	// skipped slots, making a whole batch's victim selection
	// O(cache size) instead of O(misses x protected). The caller must
	// not call OnAccess between BeginVictimSweep and the final Victim
	// of the sweep (OnInsert of returned victims is fine).
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

// LRUPolicy is an intrusive doubly-linked list over slot indices; index n
// is the sentinel head/tail. The concrete type is exported so the
// scratchpad can devirtualize the hot path for the paper's default
// policy: recency touches and the victim sweep then run through direct,
// inlinable calls instead of interface dispatch and a callback.
type LRUPolicy struct {
	nodes []lruNode
	n     int
	// sweep is the armed-mode cursor (sentinel value n when exhausted);
	// armed is toggled by BeginVictimSweep.
	sweep int32
	armed bool
}

// NewLRUPolicy returns an LRU policy over n slots, all initially in LRU
// order 0..n-1 (slot 0 least recent).
func NewLRUPolicy(n int) Policy {
	p := &LRUPolicy{}
	p.Reset(n)
	return p
}

// Reset reinitialises p over n slots exactly as NewLRUPolicy(n) builds
// it (LRU order 0..n-1, sweep disarmed), reusing the node array when its
// capacity suffices.
func (p *LRUPolicy) Reset(n int) {
	if cap(p.nodes) < n+1 {
		p.nodes = make([]lruNode, n+1)
	}
	p.nodes = p.nodes[:n+1]
	p.n = n
	p.sweep, p.armed = 0, false
	// Circular list through sentinel n; next points toward MRU.
	for i := 0; i <= n; i++ {
		p.nodes[i].next = int32((i + 1) % (n + 1))
		p.nodes[(i+1)%(n+1)].prev = int32(i)
	}
}

func (p *LRUPolicy) Name() string { return string(LRU) }

func (p *LRUPolicy) unlink(s int) {
	nd := p.nodes[s]
	p.nodes[nd.prev].next = nd.next
	p.nodes[nd.next].prev = nd.prev
}

func (p *LRUPolicy) pushMRU(s int) {
	// MRU position is just before the sentinel.
	sent := int32(p.n)
	last := p.nodes[sent].prev
	p.nodes[last].next = int32(s)
	p.nodes[s] = lruNode{prev: last, next: sent}
	p.nodes[sent].prev = int32(s)
}

func (p *LRUPolicy) touch(s int) {
	p.unlink(s)
	p.pushMRU(s)
}

func (p *LRUPolicy) OnInsert(slot int) { p.touch(slot) }
func (p *LRUPolicy) OnAccess(slot int) { p.touch(slot) }

func (p *LRUPolicy) BeginVictimSweep() {
	p.armed = true
	p.sweep = p.nodes[p.n].next
}

// SweepNext returns the next candidate of the armed sweep (advancing the
// cursor) or -1 when the eviction order is exhausted. It lets callers
// drive the sweep with an inlined evictability check; equivalent to
// Victim with a predicate evaluated caller-side.
func (p *LRUPolicy) SweepNext() int {
	s := p.sweep
	if s == int32(p.n) {
		return -1
	}
	p.sweep = p.nodes[s].next
	return int(s)
}

func (p *LRUPolicy) Victim(evictable func(int) bool) int {
	if !p.armed {
		// Standalone mode: fresh walk from the LRU end.
		for s := p.nodes[p.n].next; s != int32(p.n); s = p.nodes[s].next {
			if evictable(int(s)) {
				return int(s)
			}
		}
		return -1
	}
	// Sweep mode: continue from the cursor; skipped slots cannot become
	// evictable within the sweep, so never revisit them.
	for s := p.sweep; s != int32(p.n); {
		nxt := p.nodes[s].next
		p.sweep = nxt
		if evictable(int(s)) {
			return int(s)
		}
		s = nxt
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
	// Armed-sweep cursor: frequency level and chain position
	// (sweepSlot == -2 means "start of bucket sweepF").
	armed     bool
	sweepF    int64
	sweepSlot int32
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
	p.armed = true
	p.sweepF = p.minFreq
	p.sweepSlot = -2
}

func (p *lfuPolicy) Victim(evictable func(int) bool) int {
	if !p.armed {
		return p.victimFresh(evictable)
	}
	f, s := p.sweepF, p.sweepSlot
	for f <= p.maxFreq {
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
				f++
				continue
			}
			s = head
		}
		for s >= 0 {
			nxt := p.next[s]
			if evictable(int(s)) {
				p.sweepF, p.sweepSlot = f, nxt
				return int(s)
			}
			s = nxt
		}
		f++
		s = -2
	}
	p.sweepF, p.sweepSlot = f, -2
	return -1
}

func (p *lfuPolicy) victimFresh(evictable func(int) bool) int {
	for f := p.minFreq; f <= p.maxFreq; f++ {
		head, ok := p.bucketHead[f]
		if !ok {
			if f == p.minFreq {
				p.minFreq++
			}
			continue
		}
		for s := head; s >= 0; s = p.next[s] {
			if evictable(int(s)) {
				return int(s)
			}
		}
	}
	return -1
}

// randomPolicy probes uniformly random slots.
type randomPolicy struct {
	rng *rand.Rand
	n   int
}

// NewRandomPolicy returns a random-eviction policy over n slots.
func NewRandomPolicy(n int, seed int64) Policy {
	return &randomPolicy{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (p *randomPolicy) Name() string      { return string(RandomPolicy) }
func (p *randomPolicy) OnInsert(int)      {}
func (p *randomPolicy) OnAccess(int)      {}
func (p *randomPolicy) BeginVictimSweep() {}

func (p *randomPolicy) Victim(evictable func(int) bool) int {
	for tries := 0; tries < 4*p.n; tries++ {
		s := p.rng.Intn(p.n)
		if evictable(s) {
			return s
		}
	}
	// Extremely contended: fall back to a deterministic sweep.
	for s := 0; s < p.n; s++ {
		if evictable(s) {
			return s
		}
	}
	return -1
}
