// Package intmap provides an open-addressing hash table from int64 keys
// to int32 values, tuned for per-batch deduplication (Dedup) and a
// plan's ID->slot index: power-of-two capacity, linear probing,
// tombstone-free (backward-shift) deletion, and an O(1) epoch Clear.
//
// The Go built-in map dominated the Plan stage's profile (hashing,
// bucket-group probing, and incremental growth on every batch); this
// table removes that overhead because its callers know the population
// up front (a batch's length) and keys are small non-negative integers.
// Keys are stored internally as key+1 so the zero word means "empty
// slot" and Clear can use the runtime's bulk memory clear. Key and value
// live in one 16-byte entry, so a probe touches a single cache line and
// a linear-probe run covers four entries per line.
package intmap

import "fmt"

const (
	// minCapacity keeps the probe mask sane for tiny hints.
	minCapacity = 8
	// fibMult is the 64-bit Fibonacci hashing multiplier
	// (2^64 / golden ratio, forced odd).
	fibMult = 0x9E3779B97F4A7C15
)

// entry packs a biased key (key+1; 0 = empty) with its value and the
// epoch it was written in (what would otherwise be padding to 16 bytes).
type entry struct {
	k uint64
	v int32
	e uint32
}

// Map is an int64 -> int32 hash table. Keys must be non-negative. The
// zero value is not usable until Reset (New is Reset on a zero value).
// Get writes nothing, so concurrent Gets with no writer are safe; any
// write must run alone.
//
// Clear is O(1): it bumps the map's epoch, making every existing entry
// stale. A stale slot behaves exactly like an empty one — it terminates
// probe chains and is claimed by the next Put that reaches it — which is
// sound because within one epoch every insert claims the first
// stale-or-empty slot of its chain, so no live entry ever sits beyond a
// stale slot in any probe path.
type Map struct {
	entries []entry
	// mask is len(entries)-1 (capacity is a power of two).
	mask uint64
	// shift positions the Fibonacci hash's top bits onto the mask.
	shift uint
	n     int
	// maxLoad is the resize threshold (3/4 of capacity).
	maxLoad int
	// epoch tags live entries; bumped by Clear.
	epoch uint32
}

// New returns a map pre-sized so that hint entries fit without growth.
func New(hint int) *Map {
	m := &Map{}
	m.Reset(hint)
	return m
}

// Reset empties the map and sizes it exactly as New(hint) would, so
// every later probe sequence, entry position and ForEach order matches a
// fresh map's. The entry array is reused when its capacity suffices
// (the stale entries are retired by an epoch bump, as in Clear).
func (m *Map) Reset(hint int) {
	c := capacityFor(hint)
	if cap(m.entries) < c {
		m.init(c)
		return
	}
	m.entries = m.entries[:c]
	m.setShape(c)
	m.epoch++
	if m.epoch == 0 {
		clear(m.entries)
	}
}

// capacityFor returns the smallest power-of-two capacity whose 3/4 load
// threshold accommodates hint entries.
func capacityFor(hint int) int {
	c := minCapacity
	for c*3/4 < hint {
		c <<= 1
	}
	return c
}

func (m *Map) init(capacity int) {
	m.entries = make([]entry, capacity)
	m.setShape(capacity)
}

// setShape derives the probe mask, hash shift and load threshold of a
// power-of-two capacity and empties the live count.
func (m *Map) setShape(capacity int) {
	m.mask = uint64(capacity - 1)
	m.maxLoad = capacity * 3 / 4
	shift := uint(64)
	for c := capacity; c > 1; c >>= 1 {
		shift--
	}
	m.shift = shift
	m.n = 0
}

// home returns the preferred slot index for a biased key.
func (m *Map) home(bkey uint64) uint64 {
	return (bkey * fibMult) >> m.shift & m.mask
}

// Len returns the number of stored entries.
func (m *Map) Len() int { return m.n }

// Cap returns the current table capacity (before the next growth).
func (m *Map) Cap() int { return len(m.entries) }

// Get returns the value stored under key and whether it is present.
func (m *Map) Get(key int64) (int32, bool) {
	bkey := uint64(key) + 1
	// Indexing through a local slice with `& (len-1)` lets the compiler
	// drop the bounds check in the probe loop (capacity is a power of
	// two); this loop is the hottest code in the whole simulator.
	ents := m.entries
	mask := uint64(len(ents) - 1)
	for i := (bkey * fibMult) >> m.shift & mask; ; i = (i + 1) & mask {
		e := &ents[i&mask]
		if e.k == bkey && e.e == m.epoch {
			return e.v, true
		}
		if e.k == 0 || e.e != m.epoch {
			return 0, false
		}
	}
}

// Put stores val under key, replacing any existing entry.
func (m *Map) Put(key int64, val int32) {
	if key < 0 {
		panic(fmt.Sprintf("intmap: negative key %d", key))
	}
	if m.n >= m.maxLoad {
		m.grow()
	}
	bkey := uint64(key) + 1
	ents := m.entries
	mask := uint64(len(ents) - 1)
	for i := (bkey * fibMult) >> m.shift & mask; ; i = (i + 1) & mask {
		e := &ents[i&mask]
		if e.k == bkey && e.e == m.epoch {
			e.v = val
			return
		}
		if e.k == 0 || e.e != m.epoch {
			e.k, e.v, e.e = bkey, val, m.epoch
			m.n++
			return
		}
	}
}

// GetOrPut returns the value stored under key if present; otherwise it
// inserts def and returns it. A single probe walk serves both the lookup
// and the insert (the Plan stage's classify-then-record pattern). idx is
// the entry's position, valid for DeleteAt until the next growth or Clear.
func (m *Map) GetOrPut(key int64, def int32) (val int32, idx int, existed bool) {
	if key < 0 {
		panic(fmt.Sprintf("intmap: negative key %d", key))
	}
	if m.n >= m.maxLoad {
		m.grow()
	}
	bkey := uint64(key) + 1
	ents := m.entries
	mask := uint64(len(ents) - 1)
	for i := (bkey * fibMult) >> m.shift & mask; ; i = (i + 1) & mask {
		e := &ents[i&mask]
		if e.k == bkey && e.e == m.epoch {
			return e.v, int(i & mask), true
		}
		if e.k == 0 || e.e != m.epoch {
			e.k, e.v, e.e = bkey, def, m.epoch
			m.n++
			return def, int(i & mask), false
		}
	}
}

// PutIdx is Put returning the entry's final position (valid until the
// next growth or Clear), for callers that maintain a reverse index into
// the table.
func (m *Map) PutIdx(key int64, val int32) int {
	if key < 0 {
		panic(fmt.Sprintf("intmap: negative key %d", key))
	}
	if m.n >= m.maxLoad {
		m.grow()
	}
	bkey := uint64(key) + 1
	ents := m.entries
	mask := uint64(len(ents) - 1)
	for i := (bkey * fibMult) >> m.shift & mask; ; i = (i + 1) & mask {
		e := &ents[i&mask]
		if e.k == bkey && e.e == m.epoch {
			e.v = val
			return int(i & mask)
		}
		if e.k == 0 || e.e != m.epoch {
			e.k, e.v, e.e = bkey, val, m.epoch
			m.n++
			return int(i & mask)
		}
	}
}

// DeleteAt removes the entry at a known position (from PutIdx/GetOrPut),
// skipping the lookup probe. The backward shift relocates trailing
// entries of the probe run; onMove reports each relocated entry's value
// and new position so reverse indices stay consistent. onMove may be
// nil.
func (m *Map) DeleteAt(idx int, onMove func(val int32, newIdx int)) {
	i := uint64(idx)
	if m.entries[i].k == 0 || m.entries[i].e != m.epoch {
		panic(fmt.Sprintf("intmap: DeleteAt(%d) on empty or stale slot", idx))
	}
	m.n--
	m.backwardShift(i, onMove)
}

// backwardShift closes the hole at i, relocating run entries that would
// otherwise become unreachable (see Delete).
func (m *Map) backwardShift(i uint64, onMove func(val int32, newIdx int)) {
	j := i
	for {
		j = (j + 1) & m.mask
		e := m.entries[j]
		if e.k == 0 || e.e != m.epoch {
			break
		}
		if cyclicBetween(i, m.home(e.k), j) {
			continue
		}
		m.entries[i] = e
		if onMove != nil {
			onMove(e.v, int(i))
		}
		i = j
	}
	m.entries[i] = entry{}
}

// Delete removes key, reporting whether it was present. Deletion shifts
// the displaced tail of the probe chain backward instead of leaving a
// tombstone, so lookup cost never degrades under delete/reinsert churn
// (the scratchpad's eviction pattern).
func (m *Map) Delete(key int64) bool {
	bkey := uint64(key) + 1
	i := m.home(bkey)
	for {
		e := &m.entries[i]
		if e.k == 0 || e.e != m.epoch {
			return false
		}
		if e.k == bkey {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	// Backward-shift: walk the contiguous run of live entries after i;
	// any entry whose home position does not lie in the cyclic interval
	// (i, j] can be moved into the hole at i, which relocates the hole
	// to j ("home cyclically in (i, j]" <=> the entry stays reachable
	// from its home once slot i empties). Stale slots terminate chains
	// just like empty ones.
	m.backwardShift(i, nil)
	return true
}

// cyclicBetween reports whether h lies in the cyclic half-open interval
// (i, j].
func cyclicBetween(i, h, j uint64) bool {
	if i <= j {
		return i < h && h <= j
	}
	return i < h || h <= j
}

// Clear removes every entry in O(1) by advancing the epoch, keeping the
// capacity. On the (practically unreachable) epoch wraparound it falls
// back to a physical clear so ancient entries cannot resurface.
func (m *Map) Clear() {
	if m.n == 0 {
		return
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.entries)
	}
	m.n = 0
}

// ForEach visits every (key, value) pair in unspecified order. The map
// must not be mutated during the walk.
func (m *Map) ForEach(f func(key int64, val int32)) {
	for i := range m.entries {
		if e := &m.entries[i]; e.k != 0 && e.e == m.epoch {
			f(int64(e.k-1), e.v)
		}
	}
}

// Reserve grows the table so n entries fit without further rehashing;
// existing entries are preserved.
func (m *Map) Reserve(n int) {
	if c := capacityFor(n); c > len(m.entries) {
		m.rehashTo(c)
	}
}

// Dedup splits an occurrence list into (distinct values, occurrence
// counts) in first-appearance order, using seen as scratch (cleared
// first) and appending into uniq/cnt. It is the one shared definition of
// the dedup-with-counts semantics the planner, the trace generator, and
// batch memoization all rely on staying bit-identical.
func Dedup(ids []int64, seen *Map, uniq []int64, cnt []int32) ([]int64, []int32) {
	seen.Clear()
	seen.Reserve(len(ids))
	for _, id := range ids {
		if at, _, dup := seen.GetOrPut(id, int32(len(uniq))); dup {
			cnt[at]++
			continue
		}
		uniq = append(uniq, id)
		cnt = append(cnt, 1)
	}
	return uniq, cnt
}

// grow doubles the capacity and reinserts every entry.
func (m *Map) grow() { m.rehashTo(len(m.entries) * 2) }

func (m *Map) rehashTo(capacity int) {
	old := m.entries
	m.init(capacity)
	// Only live entries migrate; they keep their epoch tag (the epoch
	// field is preserved across init, and fresh slots' k==0 marks them
	// empty regardless of epoch).
	for _, e := range old {
		if e.k == 0 || e.e != m.epoch {
			continue
		}
		for j := m.home(e.k); ; j = (j + 1) & m.mask {
			if m.entries[j].k == 0 {
				m.entries[j] = e
				m.n++
				break
			}
		}
	}
}
