package serve

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

func mustServeFaults(t *testing.T, s string) hw.FaultPlan {
	t.Helper()
	p, err := hw.ParseFaultPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkConserved(t *testing.T, rep *Report) {
	t.Helper()
	if err := rep.checkConservation(); err != nil {
		t.Fatal(err)
	}
	if rep.Offered != rep.Served+rep.Shed+rep.Drops+rep.TimedOut {
		t.Fatalf("conservation arithmetic off: %+v", rep)
	}
}

// killConfig is the shared kill scenario: a flash crowd piles the
// queues deep (the caps are roomy enough that little drops), then
// replica 1 dies near the spike's end with a full queue to flush. The
// flash window is [0.3 s, 0.375 s] (fractions of the 1.5 s nominal
// duration); the kill lands at 0.37 s.
func killConfig(t *testing.T, policy Policy) Config {
	cfg := testConfig(policy, trace.Medium)
	cfg.Arrival = ArrivalSpec{Shape: ShapeFlash, Rate: 1000, Mult: 6, At: 0.2, Dur: 0.05}
	cfg.Requests = 1500
	cfg.QueueCap = 64
	cfg.DenseTime = 2e-3 // ~2.2 ms service: work is in flight at any instant
	cfg.Faults = mustServeFaults(t, "replica1@0.37")
	return cfg
}

// TestReplicaKillConservation: a permanent mid-run replica kill without
// retries loses the flushed queue to TimedOut, keeps the conservation
// invariant exact, and books the replica's downtime and the fleet's
// availability loss.
func TestReplicaKillConservation(t *testing.T) {
	rep, err := Run(killConfig(t, PolicyLeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, rep)
	if rep.TimedOut == 0 {
		t.Error("queue flush produced no timed-out queries")
	}
	if rep.Availability >= 1 {
		t.Errorf("availability %.4f with a dead replica, want < 1", rep.Availability)
	}
	if dt := rep.Workers[1].Downtime; dt <= 0 {
		t.Errorf("killed replica booked %.4fs downtime", dt)
	}
	for i, w := range rep.Workers {
		if i != 1 && w.Downtime != 0 {
			t.Errorf("replica %d booked %.4fs downtime without a fault", i, w.Downtime)
		}
	}
}

// TestRetryFailoverBeatsNoRetry: under the same mid-run kill, bounded
// retries with failover must recover the flushed queries on the
// surviving replicas — strictly more served and strictly higher goodput
// than the no-retry run (the acceptance gate of DESIGN.md §13). The
// backoff matters as much as the budget: it spaces the retries past the
// spike so they find room instead of bouncing off still-full queues.
func TestRetryFailoverBeatsNoRetry(t *testing.T) {
	noRetry, err := Run(killConfig(t, PolicyLeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	withRetry := killConfig(t, PolicyLeastLoaded)
	withRetry.Retry = RetrySpec{Max: 3, Backoff: 0.1}
	retried, err := Run(withRetry)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, retried)
	if retried.Retried == 0 {
		t.Fatal("retry run issued no retries")
	}
	if retried.Served <= noRetry.Served {
		t.Errorf("retry served %d <= no-retry %d", retried.Served, noRetry.Served)
	}
	if retried.Goodput <= noRetry.Goodput {
		t.Errorf("retry goodput %.1f <= no-retry %.1f", retried.Goodput, noRetry.Goodput)
	}
	if retried.TimedOut >= noRetry.TimedOut {
		t.Errorf("retry timed out %d >= no-retry %d", retried.TimedOut, noRetry.TimedOut)
	}
}

// TestRouterExcludesDownReplica: while a replica is down no new query
// may land on it — its served count freezes at the kill.
func TestRouterExcludesDownReplica(t *testing.T) {
	for _, p := range Policies {
		cfg := testConfig(p, trace.Medium)
		cfg.Faults = mustServeFaults(t, "replica0@0.02")
		cfg.Retry = RetrySpec{Max: 1}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		checkConserved(t, rep)
		// Every query the dead replica "served" completed before the
		// strike; its queue was flushed at it. The other replicas carry
		// the rest of the run.
		var others int64
		for i, w := range rep.Workers {
			if i != 0 {
				others += w.Served
			}
		}
		if others == 0 {
			t.Errorf("%s: survivors served nothing", p)
		}
		if rep.Workers[0].Served > others {
			t.Errorf("%s: dead replica served %d vs survivors %d", p, rep.Workers[0].Served, others)
		}
	}
}

// TestHealRewarm: a replica that recovers starts cold, on the managers
// its kill parked, and re-warms through priced fills; the report carries
// the re-warm bill.
func TestHealRewarm(t *testing.T) {
	cfg := testConfig(PolicyRoundRobin, trace.High)
	cfg.Faults = mustServeFaults(t, "replica1@0.05-0.1")
	cfg.Retry = RetrySpec{Max: 2}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(f.workers[1].mgrs)
	rep, err := f.Simulate(f.cfg.Arrival.Times(cfg.Requests, cfg.Seed+8200))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.workers[1].mgrs, before) {
		t.Error("heal built new managers instead of resetting the killed replica's")
	}
	checkConserved(t, rep)
	if rep.RewarmFills == 0 || rep.RewarmTime <= 0 {
		t.Errorf("recovered replica booked no re-warm: fills %d, time %.6f",
			rep.RewarmFills, rep.RewarmTime)
	}
	if rep.Workers[1].Served == 0 {
		t.Error("recovered replica served nothing after heal")
	}
	if dt := rep.Workers[1].Downtime; dt <= 0.04 || dt > 0.06 {
		t.Errorf("downtime %.4fs, want ~0.05s outage overlap", dt)
	}
}

// TestHedgedRequests: with hedging on, slow queries duplicate to a
// second replica, the counter records it, and conservation still holds
// (first response wins — a query never counts twice).
func TestHedgedRequests(t *testing.T) {
	cfg := testConfig(PolicyLeastLoaded, trace.Medium)
	cfg.Hedge = 2e-4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, rep)
	if rep.Hedged == 0 {
		t.Fatal("no hedges fired at a 0.2 ms hedge delay")
	}
	if rep.Served > rep.Offered {
		t.Fatalf("served %d > offered %d: a hedged query counted twice", rep.Served, rep.Offered)
	}
}

// TestDeadlineGoodput: a tight deadline splits goodput from throughput;
// without one they are equal.
func TestDeadlineGoodput(t *testing.T) {
	cfg := testConfig(PolicyLeastLoaded, trace.Medium)
	cfg.Arrival.Rate = 20000 // enough queueing that the tail crosses 0.3 ms
	cfg.Deadline = 3e-4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, rep)
	if rep.Goodput >= rep.Throughput {
		t.Errorf("goodput %.1f >= throughput %.1f under a 1 ms deadline",
			rep.Goodput, rep.Throughput)
	}
	loose := testConfig(PolicyLeastLoaded, trace.Medium)
	loose.Deadline = 10
	rep2, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Goodput != rep2.Throughput {
		t.Errorf("goodput %.1f != throughput %.1f under a loose deadline",
			rep2.Goodput, rep2.Throughput)
	}
}

// TestAdmissionShedding: under overload the reject-newest controller
// sheds ahead of the queue cap, accounted separately from drops; with
// Degrade the rejections ride the CPU path instead and nothing is lost.
func TestAdmissionShedding(t *testing.T) {
	overload := func() Config {
		cfg := testConfig(PolicyLeastLoaded, trace.Medium)
		cfg.Arrival.Rate = 50000
		cfg.QueueCap = 8
		return cfg
	}
	cfg := overload()
	cfg.Admission = AdmissionSpec{Policy: AdmitNewest, Threshold: 0.5}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, rep)
	if rep.Shed == 0 {
		t.Error("reject-newest shed nothing under 25x overload")
	}
	if rep.Drops != 0 {
		t.Errorf("queue-cap drops %d alongside a shedding threshold below the cap", rep.Drops)
	}

	deg := overload()
	deg.Admission = AdmissionSpec{Policy: AdmitNewest, Threshold: 0.5, Degrade: true}
	repD, err := Run(deg)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, repD)
	if repD.Shed != 0 || repD.Drops != 0 {
		t.Errorf("degraded mode still lost queries: shed %d, drops %d", repD.Shed, repD.Drops)
	}
	if repD.Degraded == 0 {
		t.Error("degraded mode served nothing on the CPU path")
	}
	if repD.Served != repD.Offered {
		t.Errorf("degraded mode served %d of %d offered", repD.Served, repD.Offered)
	}
	var workerDegraded int64
	for _, w := range repD.Workers {
		workerDegraded += w.Degraded
	}
	if workerDegraded != repD.Degraded {
		t.Errorf("per-worker degraded %d != fleet %d", workerDegraded, repD.Degraded)
	}
}

// TestAdmissionCheapestSpares: cheapest-first sheds only queries the
// router estimates cache-warm, so it sheds no more than reject-newest
// at the same threshold and keeps serving the miss-heavy tail.
func TestAdmissionCheapestSpares(t *testing.T) {
	run := func(policy AdmissionPolicy) *Report {
		cfg := testConfig(PolicyHitAware, trace.Medium)
		cfg.Arrival.Rate = 50000
		cfg.QueueCap = 8
		cfg.Admission = AdmissionSpec{Policy: policy, Threshold: 0.5}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkConserved(t, rep)
		return rep
	}
	newest := run(AdmitNewest)
	cheapest := run(AdmitCheapest)
	if cheapest.Shed == 0 {
		t.Error("cheapest-first shed nothing under 25x overload on a high-locality trace")
	}
	if cheapest.Shed >= newest.Shed {
		t.Errorf("cheapest-first shed %d >= reject-newest %d", cheapest.Shed, newest.Shed)
	}
}

// TestHostKillTakesDownReplicas: on cluster2x2 a host kill takes down
// every replica homed on that host at once.
func TestHostKillTakesDownReplicas(t *testing.T) {
	cfg := testConfig(PolicyRoundRobin, trace.Medium)
	topo, err := hw.ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	cfg.Arrival.Rate = 2000
	cfg.Requests = 4000 // ~2 s of traffic so the 1 s host kill lands mid-run
	cfg.Faults = mustServeFaults(t, "host1@1")
	cfg.Retry = RetrySpec{Max: 2}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, rep)
	downed := 0
	for _, w := range rep.Workers {
		if w.Host == 1 {
			if w.Downtime <= 0 {
				t.Errorf("replica on host 1 booked no downtime")
			}
			downed++
		} else if w.Downtime != 0 {
			t.Errorf("replica on host %d booked %.4fs downtime", w.Host, w.Downtime)
		}
	}
	if downed != 2 {
		t.Fatalf("%d replicas homed on host 1, want 2 on cluster2x2 with 4 replicas", downed)
	}
	if rep.Availability >= 1 || rep.Availability <= 0 {
		t.Errorf("availability %.4f, want in (0,1)", rep.Availability)
	}
}

// TestZeroFaultReportFields: a run with no fault or resilience knob
// reports the failure-model fields at their documented identities
// (never nil, never unset).
func TestZeroFaultReportFields(t *testing.T) {
	rep, err := Run(testConfig(PolicyLeastLoaded, trace.Medium))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Availability != 1 {
		t.Errorf("fault-free availability %.4f, want 1", rep.Availability)
	}
	if rep.Goodput != rep.Throughput {
		t.Errorf("fault-free goodput %.1f != throughput %.1f", rep.Goodput, rep.Throughput)
	}
	if rep.Shed != 0 || rep.TimedOut != 0 || rep.Retried != 0 || rep.Hedged != 0 ||
		rep.Degraded != 0 || rep.RewarmFills != 0 || rep.RewarmTime != 0 {
		t.Errorf("fault-free run carries resilience counters: %+v", rep)
	}
	for _, w := range rep.Workers {
		if w.Downtime != 0 || w.Degraded != 0 {
			t.Errorf("fault-free worker carries downtime/degraded: %+v", w)
		}
	}
}

// TestServeFaultValidation: the serving config rejects fault plans that
// cannot strike it.
func TestServeFaultValidation(t *testing.T) {
	for _, tc := range []struct{ plan, why string }{
		{"replica7@0.5", "replica index past the fleet"},
		{"host0@1", "host kill without a topology"},
		{"link:host0-host1@5", "training-only event kind"},
	} {
		cfg := testConfig(PolicyLeastLoaded, trace.Medium)
		cfg.Faults = mustServeFaults(t, tc.plan)
		if _, err := NewFleet(cfg); err == nil {
			t.Errorf("NewFleet accepted %q: %s", tc.plan, tc.why)
		}
	}
}

// TestResilienceStringCanonical pins the canonical resilience shape key
// recorded by benchmark baselines.
func TestResilienceStringCanonical(t *testing.T) {
	if s := (Options{}).ResilienceString(); s != "" {
		t.Errorf("zero options render %q, want empty", s)
	}
	o := Options{
		Deadline:  0.02,
		Retry:     RetrySpec{Max: 2},
		Hedge:     5e-4,
		Admission: AdmissionSpec{Policy: AdmitNewest, Threshold: 0.75},
	}
	want := "deadline=0.02;retry=2:0.5;hedge=0.0005;admission=newest:0.75"
	if s := o.ResilienceString(); s != want {
		t.Errorf("ResilienceString() = %q, want %q", s, want)
	}
}

// TestParseResilienceFlags covers the -retry and -admission grammars.
func TestParseResilienceFlags(t *testing.T) {
	r, err := ParseRetry("2:0.25")
	if err != nil || r.Max != 2 || r.Backoff != 0.25e-3 {
		t.Errorf("ParseRetry(2:0.25) = %+v, %v", r, err)
	}
	if r, err := ParseRetry("3"); err != nil || r.Backoff != DefaultRetryBackoff {
		t.Errorf("ParseRetry(3) = %+v, %v (want default backoff)", r, err)
	}
	for _, in := range []string{"0", "-1", "2:", "2:0", "2:-1", "abc"} {
		if _, err := ParseRetry(in); err == nil {
			t.Errorf("ParseRetry(%q) accepted", in)
		}
	}
	a, err := ParseAdmission("cheapest:0.5:degrade")
	if err != nil || a.Policy != AdmitCheapest || a.Threshold != 0.5 || !a.Degrade {
		t.Errorf("ParseAdmission(cheapest:0.5:degrade) = %+v, %v", a, err)
	}
	if a, err := ParseAdmission("degrade"); err != nil || a.Policy != AdmitAll || !a.Degrade {
		t.Errorf("ParseAdmission(degrade) = %+v, %v", a, err)
	}
	if a, err := ParseAdmission("newest"); err != nil || a.Threshold != DefaultAdmissionThreshold {
		t.Errorf("ParseAdmission(newest) = %+v, %v (want default threshold)", a, err)
	}
	for _, in := range []string{"oldest", "newest:2", "newest:-0.5", "degrade:0.5", "newest:0.5:0.6:degrade"} {
		if _, err := ParseAdmission(in); err == nil {
			t.Errorf("ParseAdmission(%q) accepted", in)
		}
	}
	// Round-trips through the canonical String form.
	for _, in := range []string{"2:0.25", "3"} {
		spec, err := ParseRetry(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseRetry(spec.String())
		if err != nil || back != spec {
			t.Errorf("retry round-trip %q -> %q -> %+v, %v", in, spec.String(), back, err)
		}
	}
	for _, in := range []string{"newest", "cheapest:0.5:degrade", "degrade"} {
		spec, err := ParseAdmission(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseAdmission(spec.String())
		if err != nil || back != spec {
			t.Errorf("admission round-trip %q -> %q -> %+v, %v", in, spec.String(), back, err)
		}
	}
}

// TestResilienceOptionValidation: the new knobs reject nonsense values.
func TestResilienceOptionValidation(t *testing.T) {
	bad := []Options{
		{Replicas: 1, Deadline: -1},
		{Replicas: 1, Hedge: -0.5},
		{Replicas: 1, Retry: RetrySpec{Max: -1}},
		{Replicas: 1, Retry: RetrySpec{Max: 1, Backoff: -2}},
		{Replicas: 1, Admission: AdmissionSpec{Policy: "oldest"}},
		{Replicas: 1, Admission: AdmissionSpec{Policy: AdmitNewest, Threshold: 1.5}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d validated: %+v", i, o)
		}
	}
	if (Options{Replicas: 1}).Resilient() {
		t.Error("plain serving options report resilient")
	}
	if !(Options{Replicas: 1, Retry: RetrySpec{Max: 1}}).Resilient() {
		t.Error("retry options not resilient")
	}
}

// TestDropRateSignals: the per-report and per-worker drop-rate signals
// (satellite of DESIGN.md §13) complement the served-only percentiles.
func TestDropRateSignals(t *testing.T) {
	rep := Report{Offered: 100, Served: 80, Drops: 10, Shed: 6, TimedOut: 4}
	if got := rep.DropRate(); got != 0.20 {
		t.Errorf("DropRate() = %.3f, want 0.20", got)
	}
	w := WorkerReport{Served: 30, Drops: 10}
	if got := w.DropRate(); got != 0.25 {
		t.Errorf("worker DropRate() = %.3f, want 0.25", got)
	}
	if (Report{}).DropRate() != 0 || (WorkerReport{}).DropRate() != 0 {
		t.Error("zero-value drop rates not zero")
	}
}

// TestArrivalEdgeCases (satellite): zero/negative rates, flash windows
// past the horizon, and out-of-range diurnal amplitudes each fail
// validation with a single-line error — no panic, no silent clamp.
func TestArrivalEdgeCases(t *testing.T) {
	bad := []ArrivalSpec{
		{Shape: ShapePoisson, Rate: 0},
		{Shape: ShapePoisson, Rate: -100},
		{Shape: ShapeDiurnal, Rate: 100, Amp: 1.5},
		{Shape: ShapeDiurnal, Rate: 100, Amp: -0.5},
		{Shape: ShapeFlash, Rate: 100, At: 0.95, Dur: 0.2}, // window past horizon
		{Shape: ShapeFlash, Rate: 100, At: 0.999},          // default dur pushes past horizon
	}
	for i, spec := range bad {
		err := spec.Validate()
		if err == nil {
			t.Errorf("bad arrival %d validated: %+v", i, spec)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("bad arrival %d error spans lines: %q", i, err)
		}
	}
	for _, in := range []string{"poisson:0", "poisson:-5", "diurnal:100:2", "flash:100:4:0.95:0.2"} {
		if _, err := ParseArrival(in); err == nil {
			t.Errorf("ParseArrival(%q) accepted", in)
		}
	}
	// The good window right at the horizon still passes.
	if err := (ArrivalSpec{Shape: ShapeFlash, Rate: 100, At: 0.9, Dur: 0.1}).Validate(); err != nil {
		t.Errorf("flash window ending exactly at the horizon rejected: %v", err)
	}
}
