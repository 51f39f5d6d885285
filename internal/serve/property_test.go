package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

// propViolation runs cfg and returns a description of the first broken
// invariant, "" when all hold. The invariants are exact, not tolerant:
//
//   - conservation: Offered = Served + Shed + Drops + TimedOut — every
//     generated query meets exactly one fate, whatever combination of
//     batching, faults, retries, hedging, admission control, and
//     deadlines the config engages;
//   - Goodput <= Throughput: the deadline-meeting completion rate can
//     never exceed the completion rate;
//   - non-negative fates, and Served bounded by Offered.
func propViolation(cfg Config) string {
	rep, err := Run(cfg)
	if err != nil {
		return fmt.Sprintf("Run failed: %v", err)
	}
	if rep.Served < 0 || rep.Shed < 0 || rep.Drops < 0 || rep.TimedOut < 0 {
		return fmt.Sprintf("negative fate count: served %d shed %d drops %d timedout %d",
			rep.Served, rep.Shed, rep.Drops, rep.TimedOut)
	}
	if got := rep.Served + rep.Shed + rep.Drops + rep.TimedOut; got != rep.Offered {
		return fmt.Sprintf("conservation broken: offered %d != served %d + shed %d + drops %d + timedout %d = %d",
			rep.Offered, rep.Served, rep.Shed, rep.Drops, rep.TimedOut, got)
	}
	if rep.Served > rep.Offered {
		return fmt.Sprintf("served %d exceeds offered %d", rep.Served, rep.Offered)
	}
	if rep.Goodput > rep.Throughput {
		return fmt.Sprintf("goodput %g exceeds throughput %g", rep.Goodput, rep.Throughput)
	}
	return ""
}

// randServeConfig draws one serving configuration from the whole knob
// space: every router (including telemetry), every arrival shape, and
// random combinations of deadline, retry, hedging, admission control,
// replica faults, and batching. Requests stays small so the suite
// explores many configurations instead of simulating few long ones.
func randServeConfig(rng *rand.Rand) Config {
	const tables = 2
	const rows = 4000
	classes := []trace.Class{trace.Random, trace.Low, trace.Medium, trace.High}
	class := classes[rng.Intn(len(classes))]
	allPolicies := append(append([]Policy{}, Policies...), PolicyTelemetry)

	replicas := 1 + rng.Intn(5)
	opts := Options{
		Replicas:  replicas,
		Router:    allPolicies[rng.Intn(len(allPolicies))],
		Requests:  64 + rng.Intn(449),
		QueueCap:  4 + rng.Intn(61),
		CacheFrac: 0.02 + 0.08*rng.Float64(),
	}
	switch rng.Intn(3) {
	case 0:
		opts.Arrival = ArrivalSpec{Shape: ShapePoisson, Rate: 500 + 8000*rng.Float64()}
	case 1:
		opts.Arrival = ArrivalSpec{Shape: ShapeDiurnal, Rate: 500 + 8000*rng.Float64(), Amp: rng.Float64()}
	default:
		opts.Arrival = ArrivalSpec{Shape: ShapeFlash, Rate: 500 + 8000*rng.Float64(),
			Mult: 2 + 10*rng.Float64(), At: 0.2 + 0.3*rng.Float64(), Dur: 0.1 + 0.2*rng.Float64()}
	}
	if rng.Intn(2) == 0 {
		opts.Deadline = (2 + 50*rng.Float64()) * 1e-3
	}
	if rng.Intn(2) == 0 {
		opts.Retry = RetrySpec{Max: 1 + rng.Intn(3), Backoff: rng.Float64() * 2e-3}
	}
	if rng.Intn(3) == 0 {
		opts.Hedge = (1 + 10*rng.Float64()) * 1e-3
	}
	switch rng.Intn(4) {
	case 0:
		opts.Admission = AdmissionSpec{Policy: AdmitNewest, Threshold: 0.5 + 0.4*rng.Float64()}
	case 1:
		opts.Admission = AdmissionSpec{Policy: AdmitNewest, Threshold: 0.5 + 0.4*rng.Float64(), Degrade: true}
	}
	if rng.Intn(3) == 0 {
		// At most one fault per replica: a second strike on a replica
		// that is already down is a plan-validation error, not a
		// simulator state the property needs to explore.
		kills := 1 + rng.Intn(2)
		for _, r := range rng.Perm(replicas) {
			if kills == 0 {
				break
			}
			kills--
			e := hw.FaultEvent{Kind: hw.FaultReplicaDown, Replica: r,
				At: 0.001 + 0.2*rng.Float64()}
			if rng.Intn(2) == 0 {
				e.Until = e.At + 0.001 + 0.2*rng.Float64()
			}
			opts.Faults.Events = append(opts.Faults.Events, e)
		}
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		opts.Batch = BatchSpec{Cap: 2 + rng.Intn(7)}
	case 2:
		opts.Batch = BatchSpec{Cap: 2 + rng.Intn(15), Delay: rng.Float64() * 0.5e-3}
	default:
		opts.Batch = BatchSpec{Cap: 1}
	}

	return Config{
		Options:      opts,
		NumTables:    tables,
		RowsPerTable: rows,
		Lookups:      4,
		EmbeddingDim: 32,
		Dists:        testDists(class, tables, rows),
		Seed:         rng.Int63(),
		System:       hw.DefaultSystem(),
	}
}

// shrinkServeConfig greedily minimizes a config that violates a
// property (violation returns "" when it holds): halve the request
// count, then switch off one knob at a time (faults, batching, hedging,
// retries, admission, deadline, extra replicas), keeping each
// simplification only while the violation persists. The result is the
// smallest configuration this ladder reaches that still breaks the
// invariant — what the failure log shows, so a red run points at the
// interacting knobs instead of a 500-query haystack.
func shrinkServeConfig(cfg Config, violation func(Config) string) Config {
	for cfg.Requests > 8 {
		c := cfg
		c.Requests = cfg.Requests / 2
		if violation(c) == "" {
			break
		}
		cfg = c
	}
	simplify := []func(*Config){
		func(c *Config) { c.Faults = hw.FaultPlan{} },
		func(c *Config) { c.Batch = BatchSpec{} },
		func(c *Config) { c.Hedge = 0 },
		func(c *Config) { c.Retry = RetrySpec{} },
		func(c *Config) { c.Admission = AdmissionSpec{} },
		func(c *Config) { c.Deadline = 0 },
		func(c *Config) { c.Replicas = 1; c.Faults = hw.FaultPlan{} },
	}
	for _, f := range simplify {
		c := cfg
		f(&c)
		if violation(c) != "" {
			cfg = c
		}
	}
	return cfg
}

// TestServeConservationProperty draws randomized serving configurations
// across the full knob space and checks the exact conservation
// invariant (Offered = Served + Shed + Drops + TimedOut) and
// Goodput <= Throughput on every one. On a violation it shrinks the
// config first and reports the minimal reproduction.
func TestServeConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20220614))
	const trials = 150
	for i := 0; i < trials; i++ {
		cfg := randServeConfig(rng)
		if v := propViolation(cfg); v != "" {
			small := shrinkServeConfig(cfg, propViolation)
			t.Logf("trial %d violated, shrunk reproduction: %+v", i, small.Options)
			t.Fatalf("trial %d: %s (shrunk: %s)", i, v, propViolation(small))
		}
	}
}

// randClosedFormConfig draws a zero-fault, unbatched configuration —
// the closed form's whole domain: every router, every arrival shape,
// single-node and cluster2x2, one or two shards. Half the draws are
// pushed over capacity against a short queue so the queue-cap bounce
// and its per-worker attribution are compared too, and a third engage
// the knobs that can never act without a fault (a retry budget, a
// deadline no query can miss), which must not move the report either.
func randClosedFormConfig(rng *rand.Rand, topo *hw.Topology) Config {
	cfg := randServeConfig(rng)
	cfg.Options = Options{
		Replicas:  cfg.Replicas,
		Router:    cfg.Router,
		Arrival:   cfg.Arrival,
		Requests:  cfg.Requests,
		QueueCap:  cfg.QueueCap,
		CacheFrac: cfg.CacheFrac,
	}
	if rng.Intn(2) == 0 {
		cfg.Arrival.Rate *= 20
		cfg.QueueCap = 1 + rng.Intn(8)
	}
	if rng.Intn(2) == 0 {
		cfg.Topology = topo
	}
	cfg.Shards = 1 + rng.Intn(2)
	if rng.Intn(3) == 0 {
		cfg.Retry = RetrySpec{Max: 1 + rng.Intn(3)}
		cfg.Deadline = 1e9
	}
	return cfg
}

// closedFormDiff runs cfg through the simulator and through the
// closed-form oracle on two freshly built fleets and describes how the
// full reports differ ("" when deep-equal), plus the queue-cap drops of
// an agreeing run (the coverage check's input).
func closedFormDiff(cfg Config) (diff string, drops int64) {
	got, err := Run(cfg)
	if err != nil {
		return fmt.Sprintf("Run failed: %v", err), 0
	}
	f, err := NewFleet(cfg)
	if err != nil {
		return fmt.Sprintf("NewFleet failed: %v", err), 0
	}
	want, err := referenceSimulate(f, f.cfg.Arrival.Times(f.cfg.Requests, f.cfg.Seed+8200))
	if err != nil {
		return fmt.Sprintf("oracle failed: %v", err), 0
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("reports differ:\nsimulator: %+v\noracle:    %+v", got, want), 0
	}
	return "", got.Drops
}

// TestEventPathMatchesClosedForm is the differential property behind
// "one serving simulator": on every zero-fault, unbatched draw the
// event-driven simulator must reproduce the closed-form oracle's whole
// Report — counters, floats, latency digest, per-worker breakdown —
// exactly. A mismatch is shrunk (shrinkServeConfig) before it is
// reported.
func TestEventPathMatchesClosedForm(t *testing.T) {
	topo, err := hw.ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20220618))
	const trials = 160
	seen := map[string]int{}
	for i := 0; i < trials; i++ {
		cfg := randClosedFormConfig(rng, topo)
		diff, drops := closedFormDiff(cfg)
		if diff != "" {
			differs := func(c Config) string { d, _ := closedFormDiff(c); return d }
			small := shrinkServeConfig(cfg, differs)
			t.Logf("trial %d diverged, shrunk reproduction: %+v shards %d topology %v",
				i, small.Options, small.Shards, small.Topology != nil)
			t.Fatalf("trial %d: %s (shrunk: %s)", i, diff, differs(small))
		}
		if drops > 0 {
			seen["drops"]++
		}
		seen[string(cfg.Router)]++
		seen[string(cfg.Arrival.Shape)]++
		seen[fmt.Sprintf("shards%d", cfg.Shards)]++
		if cfg.Topology != nil {
			seen["cluster2x2"]++
		} else {
			seen["single"]++
		}
	}
	// The draw must actually cover the space the claim is made over.
	for _, k := range []string{
		string(PolicyRandom), string(PolicyRoundRobin), string(PolicyLeastLoaded),
		string(PolicyHitAware), string(PolicyTelemetry),
		string(ShapePoisson), string(ShapeDiurnal), string(ShapeFlash),
		"single", "cluster2x2", "shards1", "shards2", "drops",
	} {
		if seen[k] < 5 {
			t.Errorf("only %d of %d trials covered %q", seen[k], trials, k)
		}
	}
}
