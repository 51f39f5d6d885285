package serve

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

// batchTestConfig is a serving config under enough load that queues
// form: a flash crowd against four replicas, which is where batching
// has material to work with.
func batchTestConfig(policy Policy, batch BatchSpec) Config {
	cfg := testConfig(policy, trace.High)
	cfg.Arrival = ArrivalSpec{Shape: ShapeFlash, Rate: 8000, Mult: 10}
	cfg.Batch = batch
	return cfg
}

// TestBatchCapOneByteIdentical pins the no-op contract: an explicit
// cap of 1 (and the zero spec) must produce a report deep-equal to the
// unbatched run's, both on a plain fleet and with faults and resilience
// knobs engaged. This is the -serve-batch 1 == flag-absent acceptance
// gate in test form.
func TestBatchCapOneByteIdentical(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(cfg *Config) {}},
		{"resilient", func(cfg *Config) {
			cfg.Deadline = 20e-3
			cfg.Retry = RetrySpec{Max: 2}
			cfg.Faults = hw.FaultPlan{Events: []hw.FaultEvent{
				{Kind: hw.FaultReplicaDown, Replica: 2, At: 0.02, Until: 0.1},
			}}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			base := batchTestConfig(PolicyHitAware, BatchSpec{})
			sh.mut(&base)
			capOne := base
			capOne.Batch = BatchSpec{Cap: 1}
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(capOne)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("cap-1 report differs from unbatched report:\nunbatched: %+v\ncap-1:     %+v", want, got)
			}
		})
	}
}

// TestBatchCountersConsistent: under flash load with cap 8, real
// batches form and the counters hang together — every batch within the
// cap, occupancy above one on average, per-worker launch counts
// summing to the fleet total, and every served query accounted to a
// batch (with no faults in play, served queries and launched batch
// members are the same population).
func TestBatchCountersConsistent(t *testing.T) {
	rep, err := Run(batchTestConfig(PolicyTelemetry, BatchSpec{Cap: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches == 0 {
		t.Fatal("no batches launched under flash load")
	}
	if rep.MaxBatch < 2 || rep.MaxBatch > 8 {
		t.Errorf("max batch %d out of [2, 8]", rep.MaxBatch)
	}
	if rep.BatchedQueries <= rep.Batches {
		t.Errorf("batched queries %d not above batch count %d — batching never amortized anything",
			rep.BatchedQueries, rep.Batches)
	}
	if rep.BatchedQueries != rep.Served {
		t.Errorf("batched queries %d != served %d: a fault-free batched run must serve exactly the launched members",
			rep.BatchedQueries, rep.Served)
	}
	var perWorker int64
	for _, w := range rep.Workers {
		perWorker += w.Batches
	}
	if perWorker != rep.Batches {
		t.Errorf("per-worker batch counts sum to %d, fleet total %d", perWorker, rep.Batches)
	}
	if rep.Batch.Cap != 8 {
		t.Errorf("report echoes batch spec %+v, want cap 8", rep.Batch)
	}
}

// TestBatchThroughputBeatsSingles: the tentpole's reason to exist.
// Under the same flash crowd, cap 8 must strictly beat cap 1 on
// throughput — shared keys probed once, PCIe and kernel launches
// amortized — while serving at least as many queries.
func TestBatchThroughputBeatsSingles(t *testing.T) {
	single, err := Run(batchTestConfig(PolicyTelemetry, BatchSpec{Cap: 1}))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(batchTestConfig(PolicyTelemetry, BatchSpec{Cap: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if batched.Throughput <= single.Throughput {
		t.Errorf("cap-8 throughput %.0f q/s does not beat cap-1 %.0f q/s under flash load",
			batched.Throughput, single.Throughput)
	}
	if batched.Served < single.Served {
		t.Errorf("cap-8 served %d < cap-1 served %d", batched.Served, single.Served)
	}
}

// TestBatchKillFlushesPending: killing a replica mid-flash flushes its
// queued batch members as failed attempts — without a retry budget
// those flushed queries finalize as TimedOut, and conservation must
// hold exactly through the flush (no member lost in the batcher's
// pending queue).
func TestBatchKillFlushesPending(t *testing.T) {
	// The flash window of this arrival spans [0.125s, 0.15s); striking
	// inside it guarantees the victim holds queued batch members.
	cfg := batchTestConfig(PolicyTelemetry, BatchSpec{Cap: 8})
	cfg.Faults = hw.FaultPlan{Events: []hw.FaultEvent{
		{Kind: hw.FaultReplicaDown, Replica: 0, At: 0.13},
	}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut == 0 {
		t.Error("permanent mid-flash replica kill flushed no pending batch members (no timed-out queries)")
	}
	if got := rep.Served + rep.Shed + rep.Drops + rep.TimedOut; got != rep.Offered {
		t.Errorf("conservation broken through the kill flush: offered %d, fates sum %d", rep.Offered, got)
	}
	if rep.Batches == 0 {
		t.Error("surviving replicas never batched")
	}
}

// TestDegradedLatencySplit pins the degraded-path latency separation:
// queries answered on the CPU fallback (admission degrade mode) land in
// DegradedLatency, GPU-path completions in Latency, and the two counts
// partition Served exactly. Before the split, CPU-path completions —
// orders of magnitude slower — polluted the main percentile deque and
// made p99 track the fallback instead of the fleet.
func TestDegradedLatencySplit(t *testing.T) {
	cfg := batchTestConfig(PolicyHitAware, BatchSpec{})
	cfg.QueueCap = 8
	cfg.Admission = AdmissionSpec{Policy: AdmitNewest, Threshold: 0.5, Degrade: true}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == 0 {
		t.Fatal("flash load against tiny queues never degraded a query — the split is unexercised")
	}
	if int64(rep.DegradedLatency.Count) != rep.Degraded {
		t.Errorf("degraded latency count %d != degraded served %d", rep.DegradedLatency.Count, rep.Degraded)
	}
	if int64(rep.Latency.Count)+int64(rep.DegradedLatency.Count) != rep.Served {
		t.Errorf("latency counts %d + %d do not partition served %d",
			rep.Latency.Count, rep.DegradedLatency.Count, rep.Served)
	}
	// The fallback is priced orders of magnitude above the GPU path, so
	// the split must actually show: the degraded median sits above the
	// GPU-path p99.
	if rep.DegradedLatency.P50 <= rep.Latency.P99 {
		t.Errorf("degraded p50 %.6f not above GPU-path p99 %.6f — split not separating the populations",
			rep.DegradedLatency.P50, rep.Latency.P99)
	}
}

// TestPlanUniqueMatchesKeySet holds worker.plan's distinct-key count —
// the per-table Plans' unique IDs, summed — to a plain set of composite
// keys (id·T + t) over random multi-query batches, at one and three
// shards. That count is what a batched launch probes.
func TestPlanUniqueMatchesKeySet(t *testing.T) {
	const maxBatch, trials = 8, 200
	for _, shards := range []int{1, 3} {
		cfg := testConfig(PolicyHitAware, trace.High)
		cfg.Shards = shards
		cfg.Batch = BatchSpec{Cap: maxBatch}
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wk := f.workers[0]
		rng := rand.New(rand.NewSource(int64(shards)))
		queries := make([]*query, maxBatch)
		for i := range queries {
			queries[i] = f.newQuery()
		}
		ids := make([][]int64, cfg.NumTables)
		seen := make(map[int64]struct{})
		shared := 0
		for trial := 0; trial < trials; trial++ {
			n := 1 + rng.Intn(maxBatch)
			clear(seen)
			for tbl := range ids {
				ids[tbl] = ids[tbl][:0]
			}
			for _, q := range queries[:n] {
				f.nextRequest(q)
				for tbl, qids := range q.ids {
					ids[tbl] = append(ids[tbl], qids...)
					for _, id := range qids {
						seen[id*int64(cfg.NumTables)+int64(tbl)] = struct{}{}
					}
				}
			}
			_, _, unique, _, err := wk.plan(ids)
			if err != nil {
				t.Fatal(err)
			}
			if unique != len(seen) {
				t.Fatalf("shards %d trial %d (batch %d): plan counted %d distinct keys, the key set %d",
					shards, trial, n, unique, len(seen))
			}
			if len(seen) < n*cfg.NumTables*cfg.Lookups {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("shards %d: no batch repeated a key, so deduplication went unexercised", shards)
		}
	}
}
