package serve

import (
	"math"
	"sort"
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

func testDists(class trace.Class, tables int, rows int64) []trace.Distribution {
	dists := make([]trace.Distribution, tables)
	for t := range dists {
		dists[t] = trace.MustClassDistribution(class, rows)
	}
	return dists
}

func testConfig(policy Policy, class trace.Class) Config {
	const tables, rows = 4, 10000
	return Config{
		Options: Options{
			Replicas: 4,
			Router:   policy,
			Arrival:  ArrivalSpec{Shape: ShapePoisson, Rate: 5000},
			Requests: 2000,
		},
		NumTables:    tables,
		RowsPerTable: rows,
		Lookups:      8,
		EmbeddingDim: 64,
		Dists:        testDists(class, tables, rows),
		Seed:         42,
		System:       hw.DefaultSystem(),
	}
}

func TestServeDeterministic(t *testing.T) {
	a, err := Run(testConfig(PolicyHitAware, trace.High))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(PolicyHitAware, trace.High))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.Drops != b.Drops || a.Hits != b.Hits ||
		a.Throughput != b.Throughput || a.Latency.P99 != b.Latency.P99 {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestSingleReplicaPolicyEquivalence: with one replica every router has
// exactly one choice, so all four policies must produce the identical
// report.
func TestSingleReplicaPolicyEquivalence(t *testing.T) {
	var base *Report
	for _, p := range Policies {
		cfg := testConfig(p, trace.Medium)
		cfg.Replicas = 1
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if base == nil {
			base = rep
			continue
		}
		if rep.Served != base.Served || rep.Hits != base.Hits ||
			rep.Misses != base.Misses || rep.Throughput != base.Throughput ||
			rep.Latency.P99 != base.Latency.P99 {
			t.Errorf("%s diverged from %s with one replica", p, base.Router)
		}
	}
}

// TestHitAwareDegradesGracefully: on a no-locality (uniform) trace the
// router's cache views carry no signal, so hit-aware must fall back to
// round-robin-comparable hit rates rather than collapsing onto one
// replica.
func TestHitAwareDegradesGracefully(t *testing.T) {
	ha, err := Run(testConfig(PolicyHitAware, trace.Random))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(testConfig(PolicyRoundRobin, trace.Random))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ha.HitRate() - rr.HitRate()); d > 0.05 {
		t.Errorf("hit-aware %.3f vs round-robin %.3f hit rate on uniform trace (|d|=%.3f > 0.05)",
			ha.HitRate(), rr.HitRate(), d)
	}
	var maxShare float64
	for _, w := range ha.Workers {
		if s := float64(w.Served) / float64(ha.Served); s > maxShare {
			maxShare = s
		}
	}
	if maxShare > 0.60 {
		t.Errorf("hit-aware sent %.0f%% of uniform traffic to one replica", maxShare*100)
	}
}

// TestLatencyPercentiles checks the end-to-end latency digest against a
// hand-computed trace: one single-row table on one replica, all queries
// arriving at t=0, so query i completes at svcMiss + i*svcHit and the
// percentiles follow the metrics.Series interpolation formula exactly.
func TestLatencyPercentiles(t *testing.T) {
	const n = 10
	dist, err := trace.NewUniform(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Options: Options{
			Replicas: 1,
			Router:   PolicyRoundRobin,
			QueueCap: n + 1,
		},
		NumTables:    1,
		RowsPerTable: 1,
		Lookups:      1,
		EmbeddingDim: 64,
		Dists:        []trace.Distribution{dist},
		Seed:         7,
		System:       hw.DefaultSystem(),
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Simulate(make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != n || rep.Drops != 0 {
		t.Fatalf("served %d drops %d, want %d/0", rep.Served, rep.Drops, n)
	}
	svcMiss := f.ServiceTime(1, 1, 1, 1, 0)
	svcHit := f.ServiceTime(0, 1, 1, 1, 0)
	lats := make([]float64, n)
	for i := range lats {
		lats[i] = svcMiss + float64(i)*svcHit
	}
	sort.Float64s(lats)
	quantile := func(q float64) float64 {
		pos := q * float64(n-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= n {
			return lats[n-1]
		}
		return lats[lo] + frac*(lats[lo+1]-lats[lo])
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", rep.Latency.P50, quantile(0.50)},
		{"p95", rep.Latency.P95, quantile(0.95)},
		{"p99", rep.Latency.P99, quantile(0.99)},
		{"max", rep.Latency.Max, lats[n-1]},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %.9g, want %.9g", c.name, c.got, c.want)
		}
	}
	if rep.HitRate() != float64(n-1)/float64(n) {
		t.Errorf("hit rate %.3f, want %.3f", rep.HitRate(), float64(n-1)/float64(n))
	}
}

// TestOverloadDrops: a queue cap of 1 under simultaneous arrivals must
// bounce the excess.
func TestOverloadDrops(t *testing.T) {
	cfg := testConfig(PolicyLeastLoaded, trace.High)
	cfg.Replicas = 2
	cfg.QueueCap = 1
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Simulate(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops != 98 || rep.Served != 2 {
		t.Errorf("served %d drops %d, want 2/98 with cap 1 on 2 replicas", rep.Served, rep.Drops)
	}
}

// TestCrossHostRouting: on cluster2x2 with four replicas, three live off
// the frontend node and one off the frontend host pair, so cross-node
// traffic and link time must both be charged.
func TestCrossHostRouting(t *testing.T) {
	cfg := testConfig(PolicyRoundRobin, trace.Medium)
	topo, err := hw.ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	cfg.Requests = 400
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrossNode == 0 || rep.CrossHost == 0 || rep.LinkTime <= 0 {
		t.Errorf("cross-node %d cross-host %d link %.6g: want all > 0",
			rep.CrossNode, rep.CrossHost, rep.LinkTime)
	}
	if rep.CrossHost >= rep.CrossNode {
		t.Errorf("cross-host %d >= cross-node %d", rep.CrossHost, rep.CrossNode)
	}
}

// TestShardedWorkers: sharded scratchpad configs must carry over to
// serving replicas, with NUMA coordination priced in.
func TestShardedWorkers(t *testing.T) {
	cfg := testConfig(PolicyHitAware, trace.High)
	topo, err := hw.ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	cfg.Shards = 2
	cfg.Requests = 400
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 {
		t.Fatal("no queries served")
	}
	if rep.CoordTime <= 0 {
		t.Errorf("sharded workers on NUMA hosts charged no coordination time")
	}
}

func TestZeroReportIsSafe(t *testing.T) {
	var rep Report
	if rep.HitRate() != 0 || rep.Throughput != 0 || rep.Drops != 0 {
		t.Errorf("zero Report not zero-valued: %+v", rep)
	}
	var w WorkerReport
	if w.HitRate() != 0 {
		t.Errorf("zero WorkerReport hit rate %.3f", w.HitRate())
	}
}

func TestOptionsValidation(t *testing.T) {
	if (Options{}).Active() {
		t.Error("zero Options should be inactive")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("inactive Options should validate: %v", err)
	}
	bad := []Options{
		{Replicas: 1, Router: "fastest"},
		{Replicas: 1, Arrival: ArrivalSpec{Shape: "sawtooth", Rate: 100}},
		{Replicas: 1, QueueCap: -1},
		{Replicas: 1, CacheFrac: 1.5},
		{Replicas: 1, Requests: -5},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d validated: %+v", i, o)
		}
	}
	cfg := testConfig(PolicyHitAware, trace.High)
	cfg.Dists = cfg.Dists[:2]
	if _, err := NewFleet(cfg); err == nil {
		t.Error("mismatched Dists length accepted")
	}
}

// TestSimulateRejectsReuse: a fleet's queues, scratchpads and counters
// carry one run, so a second Simulate must fail loudly rather than
// report on top of the first run's state.
func TestSimulateRejectsReuse(t *testing.T) {
	f, err := NewFleet(testConfig(PolicyHitAware, trace.Medium))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := f.cfg.Arrival.Times(f.cfg.Requests, f.cfg.Seed+8200)
	if _, err := f.Simulate(arrivals); err != nil {
		t.Fatal(err)
	}
	if rep, err := f.Simulate(arrivals); err == nil {
		t.Fatalf("second Simulate on one fleet returned a report: %+v", rep)
	}
}
