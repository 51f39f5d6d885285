package serve

import (
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

// BenchmarkSimulate tracks the simulator's own host cost per simulated
// query on the two shapes that bracket the event loop: a steady
// under-capacity fleet, where the heap stays empty and every query
// retires at its arrival, and a flash crowd with batching, retries and a
// mid-spike replica kill, where batch launches, doomed attempts and
// retry timers keep queries alive across events. Fleet construction and
// the arrival vector are built outside the timer; ns/query and
// allocs/query cover Simulate alone.
func BenchmarkSimulate(b *testing.B) {
	shapes := []struct {
		name string
		cfg  func() Config
	}{
		{"steady", func() Config {
			cfg := testConfig(PolicyHitAware, trace.High)
			cfg.Requests = 20000
			return cfg
		}},
		{"flash-batch-kill", func() Config {
			cfg := testConfig(PolicyTelemetry, trace.High)
			cfg.Requests = 20000
			cfg.Arrival = ArrivalSpec{Shape: ShapeFlash, Rate: 8000, Mult: 10}
			cfg.Batch = BatchSpec{Cap: 8}
			cfg.Retry = RetrySpec{Max: 2}
			cfg.Faults = hw.FaultPlan{Events: []hw.FaultEvent{
				{Kind: hw.FaultReplicaDown, Replica: 1, At: 1.3, Until: 1.4},
			}}
			return cfg
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var queries, mallocs uint64
			var before, after runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, err := NewFleet(sh.cfg())
				if err != nil {
					b.Fatal(err)
				}
				arrivals := f.cfg.Arrival.Times(f.cfg.Requests, f.cfg.Seed+8200)
				runtime.ReadMemStats(&before)
				b.StartTimer()
				rep, err := f.Simulate(arrivals)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				queries += uint64(rep.Offered)
				mallocs += after.Mallocs - before.Mallocs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
			b.ReportMetric(float64(mallocs)/float64(queries), "allocs/query")
		})
	}
}
