package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// MaxRecordRows is the largest table a PrewarmRecord covers: it keeps
// sparse IDs and draw indices as int32, and a prewarm at capacity c
// reads up to 8c+100 draws.
const MaxRecordRows = (math.MaxInt32 - 100) / 8

// A PrewarmRecord is one table's prewarm draw stream, recorded once for
// every manager that prewarms from it: the first appearance of each row,
// in draw order. On a manager holding no rows, PrewarmRows at capacity c
// inserts exactly the recorded rows whose draw index is below 8c+100, in
// order, until the primary slots run out, so [Manager.PrewarmFrom]
// replays that prefix without drawing or probing the Hit-Map. The record
// extends lazily, from its own sample and a row bitmap, only as far as
// the largest capacity asked for needs. It is safe for concurrent use.
type PrewarmRecord struct {
	mu     sync.Mutex
	rows   int64
	sample func() int64
	seen   []uint64 // row bitmap of the IDs recorded so far
	ids    []int32
	late   []lateDraw
	draws  int
}

// lateDraw records that ids[i] was drawn at index at >= 8i+108. Only
// such an ID can fall outside a prewarm's draw limit: a prewarm at
// capacity c reaches ids[i] only if c > i, and its limit 8c+100 is then
// at least 8i+108. So the record keeps no draw index for the others.
type lateDraw struct{ i, at int32 }

// NewPrewarmRecord returns an empty record of the stream sample draws
// from a table of rows rows, which must be in [1, MaxRecordRows]. The
// record owns sample: it calls it under its lock, so never concurrently,
// and sample must not call the record.
func NewPrewarmRecord(rows int64, sample func() int64) (*PrewarmRecord, error) {
	if rows < 1 || rows > MaxRecordRows {
		return nil, fmt.Errorf("shard: prewarm record of %d rows outside [1, %d]", rows, MaxRecordRows)
	}
	return &PrewarmRecord{rows: rows, sample: sample}, nil
}

// prefix extends the record until it holds want rows (or every row) or
// has made limit draws, and returns it. Later extensions only append, so
// the returned slices stay valid and unchanged.
func (r *PrewarmRecord) prefix(want, limit int) ([]int32, []lateDraw) {
	want = min(want, int(r.rows))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ids) < want && r.draws < limit {
		if r.seen == nil {
			r.seen = make([]uint64, (r.rows+63)/64)
		}
		r.ids = slices.Grow(r.ids, want-len(r.ids))
	}
	for len(r.ids) < want && r.draws < limit {
		id := r.sample()
		if id < 0 || id >= r.rows {
			panic(fmt.Sprintf("shard: prewarm: sparse ID %d outside the table's rows [0, %d)", id, r.rows))
		}
		if w, bit := id>>6, uint64(1)<<(id&63); r.seen[w]&bit == 0 {
			r.seen[w] |= bit
			if i := len(r.ids); r.draws >= 8*i+108 {
				r.late = append(r.late, lateDraw{int32(i), int32(r.draws)})
			}
			r.ids = append(r.ids, int32(id))
		}
		r.draws++
	}
	return r.ids, r.late
}

// PrewarmFrom prewarms m from r: the same rows, slots, recency order,
// stamps and statistics as m.PrewarmRows(rows, sample, onFill) with r's
// table size and stream, on a manager that holds no rows (a new or reset
// one) and has at most MaxRecordRows slots; PrewarmFrom panics otherwise.
func (m *Manager) PrewarmFrom(r *PrewarmRecord, onFill func(id int64, slot int32)) int {
	if m.Len() != 0 || m.Capacity() > MaxRecordRows {
		panic("shard: PrewarmFrom needs an empty manager of at most MaxRecordRows slots")
	}
	m.GrowRows(r.rows)
	limit := 8*m.Capacity() + 100
	ids, late := r.prefix(m.Capacity(), limit)
	i := 0
	return m.prewarm(func() (int64, bool) {
		if i == len(ids) {
			return 0, false
		}
		if len(late) > 0 && int(late[0].i) == i {
			if int(late[0].at) >= limit {
				return 0, false
			}
			late = late[1:]
		}
		i++
		return int64(ids[i-1]), true
	}, onFill)
}
