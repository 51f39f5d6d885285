// Package metrics provides the small streaming statistics the engines
// report: per-cycle latency distributions (mean/percentiles) and counters.
// The paper reports averages; tail percentiles expose pipeline jitter —
// e.g. the periodic cycles where an unlucky batch misses on its whole
// working set.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Series collects float64 samples for summary statistics.
type Series struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (s *Series) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
}

// Grow reserves room for n more samples, so the next n Adds do not
// reallocate.
func (s *Series) Grow(n int) { s.samples = slices.Grow(s.samples, n) }

// Summary is the digest of a Series.
type Summary struct {
	Count         int
	Mean          float64
	Min, Max      float64
	P50, P95, P99 float64
	StdDev        float64
	Total         float64
}

// Summarize computes the digest. An empty series yields a zero Summary.
func (s *Series) Summarize() Summary {
	n := len(s.samples)
	if n == 0 {
		return Summary{}
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	var sum, sumSq float64
	for _, v := range s.samples {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  n,
		Mean:   mean,
		Min:    s.samples[0],
		Max:    s.samples[n-1],
		P50:    s.Quantile(0.50),
		P95:    s.Quantile(0.95),
		P99:    s.Quantile(0.99),
		StdDev: math.Sqrt(variance),
		Total:  sum,
	}
}

// Quantile returns the q-quantile (q in [0,1]) using nearest-rank with
// linear interpolation. The series is sorted as a side effect.
func (s *Series) Quantile(q float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s.samples[n-1]
	}
	return s.samples[lo]*(1-frac) + s.samples[lo+1]*frac
}

// String renders the summary compactly in milliseconds (values are
// interpreted as seconds, matching the engines' units).
func (sum Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms",
		sum.Count, sum.Mean*1e3, sum.P50*1e3, sum.P95*1e3, sum.P99*1e3, sum.Max*1e3)
}
