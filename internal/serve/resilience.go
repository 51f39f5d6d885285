// Client-side resilience knobs for the serving frontend: bounded
// retries with exponential backoff, hedged requests, per-query
// deadlines, and the admission controller that sheds or degrades load
// before queues overflow. These are the -retry / -hedge / -deadline /
// -admission flag families; the failure schedule itself (-serve-fail)
// rides on hw.FaultPlan. Everything here is pure configuration — the
// simulator in failure.go executes it deterministically under the
// virtual clock.

package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultRetryBackoff is the base backoff delay (seconds) when a retry
// spec leaves it unset: 0.5 ms, a few service times — long enough for a
// transient queue spike to drain, short enough to matter against a
// millisecond-scale deadline.
const DefaultRetryBackoff = 0.5e-3

// RetrySpec bounds client-side retries after a failed attempt (replica
// death flushing the query, no live replica, a retry bounced off a full
// queue). The k-th retry waits Backoff*2^(k-1) before redispatching to
// a replica the query has not tried. The zero value disables retries.
type RetrySpec struct {
	// Max is the retry budget per query, not counting the initial
	// dispatch.
	Max int
	// Backoff is the base backoff delay in seconds (0 with Max > 0
	// selects DefaultRetryBackoff).
	Backoff float64
}

// Active reports whether retries are enabled.
func (r RetrySpec) Active() bool { return r.Max > 0 }

// withDefaults fills the backoff when retries are on.
func (r RetrySpec) withDefaults() RetrySpec {
	if r.Max > 0 && r.Backoff == 0 {
		r.Backoff = DefaultRetryBackoff
	}
	return r
}

// Validate reports a descriptive error for an unusable spec.
func (r RetrySpec) Validate() error {
	if r.Max < 0 {
		return fmt.Errorf("serve: retry budget %d < 0", r.Max)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("serve: retry backoff %g < 0", r.Backoff)
	}
	return nil
}

// RetryGrammar documents the -retry flag syntax for usage errors.
const RetryGrammar = "<max>[:<backoff-ms>]"

// String renders the spec in the -retry grammar (backoff in ms), "" for
// the inactive zero spec.
func (r RetrySpec) String() string {
	if !r.Active() {
		return ""
	}
	r = r.withDefaults()
	return fmt.Sprintf("%d:%g", r.Max, r.Backoff*1e3)
}

// ParseRetry parses the -retry flag grammar: "2" (two retries, default
// backoff) or "2:0.25" (base backoff 0.25 ms). "" parses to the
// inactive zero spec.
func ParseRetry(s string) (RetrySpec, error) {
	if s == "" {
		return RetrySpec{}, nil
	}
	maxPart, backoff, hasBackoff := strings.Cut(s, ":")
	var spec RetrySpec
	var err error
	if spec.Max, err = strconv.Atoi(maxPart); err != nil || spec.Max < 1 {
		return RetrySpec{}, fmt.Errorf("serve: retry %q: bad budget %q (want %s)", s, maxPart, RetryGrammar)
	}
	if hasBackoff {
		ms, err := strconv.ParseFloat(backoff, 64)
		if err != nil || ms <= 0 {
			return RetrySpec{}, fmt.Errorf("serve: retry %q: bad backoff %q (want %s)", s, backoff, RetryGrammar)
		}
		spec.Backoff = ms / 1e3
	}
	return spec.withDefaults(), nil
}

// AdmissionPolicy names a load-shedding policy.
type AdmissionPolicy string

const (
	// AdmitAll is the zero policy: no shedding (degraded mode may still
	// be on via AdmissionSpec.Degrade).
	AdmitAll AdmissionPolicy = ""
	// AdmitNewest sheds the arriving query once the chosen replica's
	// queue passes the threshold — classic reject-newest: protect the
	// work already admitted.
	AdmitNewest AdmissionPolicy = "newest"
	// AdmitCheapest sheds the arriving query past the threshold only
	// when the router estimates it cache-warm ("cheap"): a warm query
	// is the least costly to turn away — its rows stay resident and a
	// client retry later is nearly free — while a miss-heavy query
	// thrown away wastes the chance to warm the cache. Under Degrade
	// the miss-heavy overflow is answered on the CPU path instead,
	// which serves it without churning the hot scratchpad.
	AdmitCheapest AdmissionPolicy = "cheapest"
)

// DefaultAdmissionThreshold is the queue-depth fraction of QueueCap at
// which shedding starts when the spec leaves it unset.
const DefaultAdmissionThreshold = 0.75

// AdmissionSpec configures the frontend's admission controller. The
// zero value admits everything (queue caps alone bound the queues).
type AdmissionSpec struct {
	// Policy selects what to shed once a replica's queue passes the
	// threshold.
	Policy AdmissionPolicy
	// Threshold is the shedding onset as a fraction of QueueCap (0
	// selects DefaultAdmissionThreshold).
	Threshold float64
	// Degrade answers would-be-shed and would-be-dropped queries on the
	// replica's CPU fallback path (DegradedServiceTime) instead of
	// rejecting them: slower, but served.
	Degrade bool
}

// Active reports whether the controller changes anything.
func (a AdmissionSpec) Active() bool { return a.Policy != AdmitAll || a.Degrade }

// withDefaults fills the threshold when a shedding policy is on.
func (a AdmissionSpec) withDefaults() AdmissionSpec {
	if a.Policy != AdmitAll && a.Threshold == 0 {
		a.Threshold = DefaultAdmissionThreshold
	}
	return a
}

// Validate reports a descriptive error for an unusable spec.
func (a AdmissionSpec) Validate() error {
	switch a.Policy {
	case AdmitAll, AdmitNewest, AdmitCheapest:
	default:
		return fmt.Errorf("serve: unknown admission policy %q (want %s)", a.Policy, AdmissionGrammar)
	}
	if a.Threshold < 0 || a.Threshold > 1 {
		return fmt.Errorf("serve: admission threshold %g out of [0,1]", a.Threshold)
	}
	return nil
}

// AdmissionGrammar documents the -admission flag syntax for usage
// errors.
const AdmissionGrammar = "newest|cheapest[:<threshold>][:degrade], or degrade alone"

// String renders the spec in the -admission grammar, "" for the
// inactive zero spec.
func (a AdmissionSpec) String() string {
	if !a.Active() {
		return ""
	}
	a = a.withDefaults()
	if a.Policy == AdmitAll {
		return "degrade"
	}
	s := fmt.Sprintf("%s:%g", a.Policy, a.Threshold)
	if a.Degrade {
		s += ":degrade"
	}
	return s
}

// ParseAdmission parses the -admission flag grammar: "newest",
// "cheapest:0.5", "newest:0.8:degrade", "cheapest:degrade", or the bare
// "degrade" (no shedding, CPU-path overflow only). "" parses to the
// inactive zero spec.
func ParseAdmission(s string) (AdmissionSpec, error) {
	if s == "" {
		return AdmissionSpec{}, nil
	}
	parts := strings.Split(s, ":")
	var spec AdmissionSpec
	switch parts[0] {
	case "degrade":
		if len(parts) != 1 {
			return AdmissionSpec{}, fmt.Errorf("serve: admission %q: bare degrade takes no arguments (want %s)", s, AdmissionGrammar)
		}
		spec.Degrade = true
		return spec, nil
	case string(AdmitNewest), string(AdmitCheapest):
		spec.Policy = AdmissionPolicy(parts[0])
	default:
		return AdmissionSpec{}, fmt.Errorf("serve: admission %q: unknown policy %q (want %s)", s, parts[0], AdmissionGrammar)
	}
	rest := parts[1:]
	if len(rest) > 0 && rest[len(rest)-1] == "degrade" {
		spec.Degrade = true
		rest = rest[:len(rest)-1]
	}
	switch len(rest) {
	case 0:
	case 1:
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return AdmissionSpec{}, fmt.Errorf("serve: admission %q: bad threshold %q (want %s)", s, rest[0], AdmissionGrammar)
		}
		spec.Threshold = v
	default:
		return AdmissionSpec{}, fmt.Errorf("serve: admission %q: too many arguments (want %s)", s, AdmissionGrammar)
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return AdmissionSpec{}, err
	}
	return spec, nil
}

// ServeFaultGrammar documents the -serve-fail event forms for usage
// errors: replica strikes at virtual-clock seconds (optionally
// recovering), and host kills (whole seconds) that take down every
// replica homed on the host.
const ServeFaultGrammar = "replica<R>@<T>[-<T2>], host<H>@<S>"

// ResilienceString renders the engaged client-resilience knobs in a
// canonical form ("" when all are off) — the shape key benchmark
// baselines record and match on, next to the fault plan itself.
func (o Options) ResilienceString() string {
	var parts []string
	if o.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("deadline=%g", o.Deadline))
	}
	if o.Retry.Active() {
		parts = append(parts, "retry="+o.Retry.String())
	}
	if o.Hedge > 0 {
		parts = append(parts, fmt.Sprintf("hedge=%g", o.Hedge))
	}
	if o.Admission.Active() {
		parts = append(parts, "admission="+o.Admission.String())
	}
	return strings.Join(parts, ";")
}
