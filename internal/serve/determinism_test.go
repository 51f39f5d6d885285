package serve

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/par"
	"repro/internal/trace"
)

// runWithPool runs cfg with its shard fan-out bounded to the given
// worker count and returns the report.
func runWithPool(t *testing.T, cfg Config, workers int) *Report {
	t.Helper()
	cfg.Pool = par.New(workers)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rep
}

// TestServeReportPoolDeterminism: the serving simulation's report must
// be bit-identical whether the sharded scratchpads plan on 1 or 4 pool
// workers — the fan-out is an execution detail, never a source of
// nondeterminism. Pinned on plain fleets (no faults, no batching) under
// both view sources and with resilience knobs and batching engaged. reflect.DeepEqual compares
// every field, per-worker counters and latency digests included; the
// test also runs under `make race`, where the same comparison doubles
// as a fan-out race probe.
func TestServeReportPoolDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"plain", func() Config {
			cfg := testConfig(PolicyHitAware, trace.High)
			cfg.Shards = 2
			return cfg
		}},
		{"plain-telemetry", func() Config {
			cfg := testConfig(PolicyTelemetry, trace.High)
			cfg.Shards = 2
			return cfg
		}},
		{"resilient-batched", func() Config {
			cfg := testConfig(PolicyTelemetry, trace.Medium)
			cfg.Shards = 2
			cfg.Batch = BatchSpec{Cap: 8}
			cfg.Deadline = 20e-3
			cfg.Retry = RetrySpec{Max: 2}
			cfg.Faults = hw.FaultPlan{Events: []hw.FaultEvent{
				{Kind: hw.FaultReplicaDown, Replica: 1, At: 0.05, Until: 0.2},
			}}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := runWithPool(t, tc.cfg(), 1)
			par4 := runWithPool(t, tc.cfg(), 4)
			if !reflect.DeepEqual(seq, par4) {
				t.Errorf("report diverges across pool widths:\n 1 worker: %+v\n 4 workers: %+v", seq, par4)
			}
		})
	}
}
