// Replica-side request batching: each worker dequeues up to BatchCap
// queued queries (or waits BatchDelay virtual seconds past the first,
// whichever comes first) and services them as one deduplicated batch.
// The batch's composite IDs are planned through the worker's sharded
// scratchpad in a single Plan per table, so a key shared by several
// members is probed (and filled) once; the IDs cross PCIe in one
// transfer, the resident rows are gathered and pooled in one kernel
// pair, and the dense forward runs once at the batch size with the
// engine roofline's per-query marginal cost. Hits and misses amortize
// exactly the way training's mini-batches amortize them — which is the
// whole point: an unbatched fleet pays kernel launch and PCIe latency
// per query, the overhead real inference servers remove first.
//
// BatchCap <= 1 disables batching entirely: every query launches alone,
// a batch of one, the moment it is admitted, no batch event is ever
// scheduled, and the report is deep-equal to the flag-absent run's (the
// -serve-batch 1 acceptance gate). Both go through the one launch path
// and the one price, Fleet.ServiceTime.

package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BatchGrammar documents the -serve-batch flag syntax for usage errors.
const BatchGrammar = "<cap>[:<delay-ms>]"

// BatchSpec configures replica-side request batching. The zero value
// (and any Cap <= 1) disables it: every query is serviced alone.
type BatchSpec struct {
	// Cap is the maximum queries serviced per batch (<= 1 disables
	// batching).
	Cap int
	// Delay is the longest a worker holds an undersized batch open, in
	// virtual-clock seconds past the first member's enqueue. Zero means
	// greedy batching: an idle worker launches immediately with
	// whatever is queued, so batches only grow while the worker is
	// busy (the adaptive batching real servers default to).
	Delay float64
}

// Enabled reports whether batching changes anything.
func (b BatchSpec) Enabled() bool { return b.Cap > 1 }

// canonical collapses every disabled spelling (zero, Cap 1, a delay
// with no real cap) onto the zero spec, so report echoes and baseline
// shape keys compare equal whenever behaviour is equal.
func (b BatchSpec) canonical() BatchSpec {
	if !b.Enabled() {
		return BatchSpec{}
	}
	return b
}

// Validate reports a descriptive error for an unusable spec.
func (b BatchSpec) Validate() error {
	if b.Cap < 0 {
		return fmt.Errorf("serve: batch cap %d < 0", b.Cap)
	}
	if !(b.Delay >= 0) || math.IsInf(b.Delay, 0) {
		return fmt.Errorf("serve: batch delay %g (want finite, >= 0)", b.Delay)
	}
	return nil
}

// String renders the spec in the -serve-batch grammar (delay in ms),
// "" for a disabled spec — the canonical shape key benchmark baselines
// record and match on.
func (b BatchSpec) String() string {
	if !b.Enabled() {
		return ""
	}
	if b.Delay > 0 {
		return fmt.Sprintf("%d:%g", b.Cap, b.Delay*1e3)
	}
	return strconv.Itoa(b.Cap)
}

// ParseBatch parses the -serve-batch flag grammar: "8" (cap 8, greedy)
// or "8:0.25" (hold undersized batches up to 0.25 ms). "" and "1" parse
// to the disabled zero spec.
func ParseBatch(s string) (BatchSpec, error) {
	if s == "" {
		return BatchSpec{}, nil
	}
	capPart, delay, hasDelay := strings.Cut(s, ":")
	var spec BatchSpec
	var err error
	if spec.Cap, err = strconv.Atoi(capPart); err != nil || spec.Cap < 1 {
		return BatchSpec{}, fmt.Errorf("serve: batch %q: bad cap %q (want %s)", s, capPart, BatchGrammar)
	}
	if hasDelay {
		ms, err := strconv.ParseFloat(delay, 64)
		if err != nil || !(ms >= 0) || math.IsInf(ms, 0) {
			return BatchSpec{}, fmt.Errorf("serve: batch %q: bad delay %q (want %s)", s, delay, BatchGrammar)
		}
		spec.Delay = ms / 1e3
	}
	if spec.Cap == 1 {
		// An explicit cap of 1 is "no batching"; canonicalize to the
		// zero spec so it shape-matches the flag being absent.
		return BatchSpec{}, nil
	}
	return spec, nil
}

// denseBatchTime prices the dense MLP forward at batch size n: the
// engine-installed roofline when available (Config.DenseBatch), a
// linear extrapolation of the single-query DenseTime otherwise.
func (f *Fleet) denseBatchTime(n int) float64 {
	if n <= 1 {
		return f.cfg.DenseTime
	}
	if f.cfg.DenseBatch != nil {
		return f.cfg.DenseBatch(n)
	}
	return float64(n) * f.cfg.DenseTime
}
