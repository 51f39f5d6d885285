package bench

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestHotPathServeMatchesRunServe holds the serving hot-path entry — the
// one every serving benchgate family records — to a direct
// engine.RunServe report of the same config: a small batched fleet with
// a replica kill, retries, hedging and shedding, so that every gated
// counter is non-zero.
func TestHotPathServeMatchesRunServe(t *testing.T) {
	cfg := tinyConfig()
	arrival, err := serve.ParseArrival("flash:20000:10:0.3:0.2")
	if err != nil {
		t.Fatal(err)
	}
	retry, err := serve.ParseRetry("3:2")
	if err != nil {
		t.Fatal(err)
	}
	admission, err := serve.ParseAdmission("newest:0.75")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Serve = serve.Options{
		Replicas:  4,
		Router:    serve.PolicyTelemetry,
		Arrival:   arrival,
		Requests:  2048,
		Faults:    hw.FaultPlan{Events: []hw.FaultEvent{{Kind: hw.FaultReplicaDown, Replica: 1, At: 0.03}}},
		Retry:     retry,
		Hedge:     2e-3,
		Admission: admission,
		Deadline:  50e-3,
		Batch:     serve.BatchSpec{Cap: 8},
	}
	got, err := HotPath(cfg, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	env, err := newEnv(cfg, cfg.Model, trace.High)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.RunServe(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"router", got.Serve, string(rep.Router)},
		{"replicas", got.ServeReplicas, rep.Replicas},
		{"throughput", got.ServeThroughput, rep.Throughput},
		{"hit rate", got.ServeHitRate, rep.HitRate()},
		{"p99 ms", got.ServeP99Ms, rep.Latency.P99 * 1e3},
		{"drops", got.ServeDrops, rep.Drops},
		{"availability", got.ServeAvailability, rep.Availability},
		{"goodput", got.ServeGoodput, rep.Goodput},
		{"retried", got.ServeRetried, rep.Retried},
		{"hedged", got.ServeHedged, rep.Hedged},
		{"shed", got.ServeShed, rep.Shed},
		{"timed out", got.ServeTimedOut, rep.TimedOut},
		{"batch", got.ServeBatch, rep.Batch.String()},
		{"batches", got.ServeBatches, rep.Batches},
		{"batched queries", got.ServeBatchedQueries, rep.BatchedQueries},
		{"max batch", got.ServeMaxBatch, rep.MaxBatch},
		{"coord rounds", got.CoordRounds, rep.CoordRounds},
	} {
		if c.got != c.want {
			t.Errorf("%s: hot path recorded %v, RunServe reports %v", c.name, c.got, c.want)
		}
	}
	if rep.Batches == 0 || rep.Retried == 0 || rep.Hedged == 0 || rep.Shed == 0 {
		t.Errorf("config left a gated counter at zero: batches %d, retried %d, hedged %d, shed %d",
			rep.Batches, rep.Retried, rep.Hedged, rep.Shed)
	}
}
