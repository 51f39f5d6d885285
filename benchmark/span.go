package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run: a call the harness made
// into a layer's exported functions. Times are host nanoseconds since
// the recorder started; Parent is the ID of the enclosing span (0 for a
// root). All spans of one run share the workload identifier.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write dumps them as JSONL when the
// benchmark ends. It is used only by the traced run, never while an
// end-to-end metric is measured.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNS: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.t0).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}

// time records f as one span and returns its duration in seconds. A nil
// recorder only times f.
func (r *recorder) time(name string, parent int, f func()) float64 {
	if r == nil {
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds()
	}
	id := r.begin(name, parent)
	f()
	return r.end(id)
}

// total sums the durations (seconds) and counts the spans called name.
func (r *recorder) total(name string) (sec float64, n int) {
	for i := range r.spans {
		if r.spans[i].Name == name {
			sec += float64(r.spans[i].EndNS-r.spans[i].StartNS) / 1e9
			n++
		}
	}
	return sec, n
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
