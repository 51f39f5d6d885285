// Request routers: the policy that picks which replica serves each
// arriving query. Routing is where the serving fleet trades locality
// against load: spreading queries evenly balances queues but dilutes
// every replica's cache, while concentrating similar queries heats one
// replica's cache at the risk of queue buildup. The hit-aware policy
// navigates exactly that frontier.

package serve

import (
	"fmt"
	"math/rand"
)

// Policy names a routing policy.
type Policy string

const (
	// PolicyRandom routes each query to a uniformly random replica.
	PolicyRandom Policy = "random"
	// PolicyRoundRobin cycles replicas in index order.
	PolicyRoundRobin Policy = "roundrobin"
	// PolicyLeastLoaded routes to the replica with the shortest queue
	// at arrival time (ties break toward the lower index).
	PolicyLeastLoaded Policy = "leastloaded"
	// PolicyHitAware scores each replica by the estimated overlap
	// between the query's embedding IDs and the replica's cache
	// contents (tracked router-side, not by oracle inspection), minus a
	// queue-depth penalty; ties break toward the shallower queue, then
	// the lower index.
	PolicyHitAware Policy = "hitaware"
	// PolicyTelemetry is the hit-aware successor that replaces the
	// router's send-history cache view with replica-published
	// telemetry: each worker reports a decayed per-table hit rate as it
	// plans (at most every TelemetryInterval of virtual time), and the
	// router scores replicas by the expected hit occurrences that view
	// predicts for the query, minus the same queue-depth penalty.
	// Snapshots older than TelemetryStaleness score zero, and a down
	// replica publishes nothing — its view is cleared on the kill, so
	// the router never routes toward a warmth that died with the
	// scratchpad.
	PolicyTelemetry Policy = "hitaware-telemetry"
)

// Policies lists the four routing policies the serving studies compare,
// in escalation order. PolicyTelemetry — hit-aware scoring from a
// different view source — is parseable but not in the frontier sweep.
var Policies = []Policy{PolicyRandom, PolicyRoundRobin, PolicyLeastLoaded, PolicyHitAware}

// PolicyNames lists the parseable policies for usage errors.
const PolicyNames = "random, roundrobin, leastloaded, hitaware, hitaware-telemetry"

// ParsePolicy resolves a routing policy name ("" selects hitaware).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyHitAware:
		return PolicyHitAware, nil
	case PolicyRandom:
		return PolicyRandom, nil
	case PolicyRoundRobin:
		return PolicyRoundRobin, nil
	case PolicyLeastLoaded:
		return PolicyLeastLoaded, nil
	case PolicyTelemetry:
		return PolicyTelemetry, nil
	}
	return "", fmt.Errorf("serve: unknown router policy %q (want %s)", s, PolicyNames)
}

// Telemetry calibration for PolicyTelemetry.
const (
	// TelemetryDecay is the weight of the newest per-table hit-rate
	// sample in a worker's exponentially decayed estimate.
	TelemetryDecay = 0.25
	// TelemetryInterval is the minimum virtual time between a worker's
	// telemetry publications — the staleness the router tolerates by
	// design (a busier publication schedule would just be the oracle).
	TelemetryInterval = 1e-3
	// TelemetryStaleness bounds how old a published snapshot may be
	// before the router treats the replica as unknown (scores zero).
	// An idle replica stops publishing, ages out, draws a query, and
	// publishes again — the loop that keeps the view live.
	TelemetryStaleness = 50e-3
)

// depthPenalty converts queue depth into overlap-score units, in
// multiples of the query's own occurrence count: each queued request
// costs a full query's worth of overlap. A fully warm replica can
// therefore never outbid an idle rival from behind a queue — overlap
// only breaks ties between equally shallow queues. Weaker penalties
// (tried first) let the warm replica absorb the whole stream and blow
// up the latency tail; this calibration keeps the p99 at the
// load-balancers' level while still concentrating traffic for cache
// warmth whenever the fleet has slack.
const depthPenalty = 1.0

// router is the routing state shared across a run: the PRNG for the
// random policy (and its reusable candidate list), the round-robin
// cursor, and the hit-aware policies' per-replica views — the router's
// own send history, or the replicas' published telemetry.
type router struct {
	policy Policy
	rng    *rand.Rand
	cand   []int
	rr     int
	views  []*cacheView
	telem  []telemSnapshot
}

// telemSnapshot is the router's copy of one replica's last published
// telemetry: the decayed per-table hit rates and the publication time.
type telemSnapshot struct {
	rates []float64
	at    float64
	ok    bool
}

// newRouter builds the routing state. Views are kept when the policy is
// hit-aware (scoring needs them) or when needViews is set (the
// cheapest-first admission controller estimates query cost from them
// under any policy); the telemetry policy allocates the published-view
// slots instead.
func newRouter(policy Policy, replicas, viewCap int, seed int64, needViews bool) *router {
	r := &router{policy: policy, rng: rand.New(rand.NewSource(seed))}
	if policy == PolicyHitAware || needViews {
		r.views = make([]*cacheView, replicas)
		for i := range r.views {
			r.views[i] = newCacheView(viewCap)
		}
	}
	if policy == PolicyTelemetry {
		r.telem = make([]telemSnapshot, replicas)
	}
	return r
}

// publish installs worker w's decayed per-table hit rates as its
// current telemetry snapshot, timestamped now.
func (r *router) publish(w int, rates []float64, now float64) {
	if r.telem == nil {
		return
	}
	snap := &r.telem[w]
	if snap.rates == nil {
		snap.rates = make([]float64, len(rates))
	}
	copy(snap.rates, rates)
	snap.at = now
	snap.ok = true
}

// telemScore is the expected number of the query's nkeys occurrences
// worker w's published hit rates predict as resident: zero when the
// replica has never published or its snapshot aged past the staleness
// bound.
func (r *router) telemScore(w, nkeys int, now float64) float64 {
	snap := &r.telem[w]
	if !snap.ok || now-snap.at > TelemetryStaleness || len(snap.rates) == 0 {
		return 0
	}
	sum := 0.0
	for _, rate := range snap.rates {
		sum += rate
	}
	return sum * float64(nkeys) / float64(len(snap.rates))
}

// choose selects the replica for a request at time now without
// recording the decision (the simulator calls note once the replica has
// admitted the query). keys is the request's embedding IDs in the
// router's composite (table, id) key space, occurrence-ordered. Down
// replicas are never eligible, nor is any index in excl (the workers a
// query already tried — retries and hedges go elsewhere). Returns -1
// when no replica is eligible. With no replica down and no exclusions
// the random policy draws once over the whole fleet, so a fault plan
// that never strikes leaves the PRNG sequence untouched.
func (r *router) choose(keys []int64, workers []*worker, now float64, excl []int) int {
	eligible := func(i int) bool {
		if workers[i].down {
			return false
		}
		for _, x := range excl {
			if x == i {
				return false
			}
		}
		return true
	}
	switch r.policy {
	case PolicyRandom:
		if len(excl) == 0 && !anyDown(workers) {
			return r.rng.Intn(len(workers))
		}
		r.cand = r.cand[:0]
		for i := range workers {
			if eligible(i) {
				r.cand = append(r.cand, i)
			}
		}
		if len(r.cand) == 0 {
			return -1
		}
		return r.cand[r.rng.Intn(len(r.cand))]
	case PolicyRoundRobin:
		for range workers {
			w := r.rr
			r.rr = (r.rr + 1) % len(workers)
			if eligible(w) {
				return w
			}
		}
		return -1
	case PolicyLeastLoaded:
		best := -1
		bestDepth := 0
		for i := range workers {
			if !eligible(i) {
				continue
			}
			d := workers[i].depth(now)
			if best < 0 || d < bestDepth {
				best, bestDepth = i, d
			}
		}
		return best
	case PolicyHitAware, PolicyTelemetry:
		// score(w) = warmth(w) - depthPenalty * |keys| * depth(w), where
		// warmth is the number of the request's ID occurrences expected
		// resident in w's scratchpad: counted against the router's own
		// send history (hitaware) or predicted from the hit rates the
		// replica last published (hitaware-telemetry). Ties go to the
		// shallower queue, then the lower index.
		best := -1
		bestScore := 0.0
		bestDepth := 0
		for i, wk := range workers {
			if !eligible(i) {
				continue
			}
			d := wk.depth(now)
			var warmth float64
			if r.policy == PolicyHitAware {
				warmth = float64(r.views[i].overlap(keys))
			} else {
				warmth = r.telemScore(i, len(keys), now)
			}
			score := warmth - depthPenalty*float64(len(keys))*float64(d)
			if best < 0 || score > bestScore || (score == bestScore && d < bestDepth) {
				best, bestScore, bestDepth = i, score, d
			}
		}
		return best
	}
	return 0
}

// note records keys as routed to worker w in the router's cache views
// (no-op without views or for w < 0).
func (r *router) note(w int, keys []int64) {
	if w >= 0 && r.views != nil {
		r.views[w].insert(keys)
	}
}

// estOverlap returns the router's occurrence-weighted estimate of how
// many of keys are resident on worker w (0 without views) — the
// cheapest-first admission controller's cost signal.
func (r *router) estOverlap(w int, keys []int64) int {
	if r.views == nil {
		return 0
	}
	return r.views[w].overlap(keys)
}

// invalidate clears the router's view of worker w: the replica died
// and its scratchpad with it, so the send-history view is stale in full
// and the published telemetry describes a cache that no longer exists
// (a down replica publishes nothing). Both re-learn after recovery.
func (r *router) invalidate(w int) {
	if r.views != nil {
		r.views[w].reset()
	}
	if r.telem != nil {
		r.telem[w].ok = false
	}
}

// anyDown reports whether any worker is currently down.
func anyDown(workers []*worker) bool {
	for _, w := range workers {
		if w.down {
			return true
		}
	}
	return false
}

// cacheView is the router's approximate model of one replica's cache
// contents: a bounded FIFO set of the composite ID keys the router has
// sent there. It deliberately ignores the replica's true (LRU) eviction
// order — the router estimates from its own routing history, which is
// the information a real frontend actually has.
type cacheView struct {
	set  map[int64]struct{}
	ring []int64
	head int
	cap  int
}

func newCacheView(capacity int) *cacheView {
	if capacity < 1 {
		capacity = 1
	}
	return &cacheView{set: make(map[int64]struct{}, capacity), cap: capacity}
}

// overlap counts the keys (occurrence-weighted) present in the view.
func (v *cacheView) overlap(keys []int64) int {
	n := 0
	for _, k := range keys {
		if _, ok := v.set[k]; ok {
			n++
		}
	}
	return n
}

// insert records keys as resident, evicting the oldest entries FIFO
// once the view exceeds its capacity.
func (v *cacheView) insert(keys []int64) {
	for _, k := range keys {
		if _, ok := v.set[k]; ok {
			continue
		}
		v.set[k] = struct{}{}
		v.ring = append(v.ring, k)
		for len(v.set) > v.cap {
			old := v.ring[v.head]
			v.head++
			delete(v.set, old)
		}
	}
	// Compact the ring's consumed prefix once it dominates the slice.
	if v.head > len(v.ring)/2 && v.head > 1024 {
		v.ring = append(v.ring[:0], v.ring[v.head:]...)
		v.head = 0
	}
}

// reset empties the view (the modeled replica lost its scratchpad).
func (v *cacheView) reset() {
	for k := range v.set {
		delete(v.set, k)
	}
	v.ring = v.ring[:0]
	v.head = 0
}
