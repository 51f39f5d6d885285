package engine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/shard"
	"repro/internal/trace"
)

// TestIterWarmZeroAllocs is the engine-level hot-path guard: once an
// engine has warmed its job pool, scratch buffers and planner pools, a
// metadata-mode training iteration allocates nothing. Each engine runs
// on a serial pool, colocated at S=1 and striped over cluster2x2 at S=4
// under hier coordination, and Run(2k) must allocate exactly as often as
// Run(k): a Run keeps a constant per-call cost (its Report, its cycle
// series), so any difference is a per-iteration allocation. A capturing
// closure handed to a per-table fan-out shows up here as k per Run.
//
// The planner's per-batch buffers grow with the largest batch seen, so
// the warm-up runs long enough for the batch sizes to have been sampled.
// The model is small so the test stays cheap under the race detector;
// batches still carry duplicate IDs and the caches still evict.
func TestIterWarmZeroAllocs(t *testing.T) {
	const k = 16
	model := smallFaultModel()
	model.NumTables, model.RowsPerTable, model.BatchSize, model.Lookups = 3, 20_000, 32, 8
	layouts := map[string]func(*EnvConfig){
		"S1": func(*EnvConfig) {},
		"S4-cluster2x2-stripe-hier": func(c *EnvConfig) {
			c.Shards = 4
			c.Topology = hw.Cluster(2, 2)
			c.Placement = hw.PlaceStripe
			c.Coord = shard.CoordHier
		},
	}
	engines := map[string]func(*Env) (Engine, error){
		"strawman": func(e *Env) (Engine, error) { return NewStrawMan(e, 0.02, cache.LRU) },
		"scratchpipe": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.02})
		},
		"scratchpipe-lookahead": func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.02, EvictionLookahead: 5})
		},
		"static": func(e *Env) (Engine, error) { return NewStaticCache(e, 0.02) },
		"hybrid": func(e *Env) (Engine, error) { return NewHybrid(e), nil },
	}
	for lname, layout := range layouts {
		for ename, build := range engines {
			t.Run(lname+"/"+ename, func(t *testing.T) {
				cfg := EnvConfig{
					Model:   model,
					System:  hw.DefaultSystem(),
					Class:   trace.Medium,
					Seed:    42,
					Workers: 1,
				}
				layout(&cfg)
				env, err := NewEnv(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := build(env)
				if err != nil {
					t.Fatal(err)
				}
				run := func(n int) func() {
					return func() {
						if _, err := eng.Run(n); err != nil {
							t.Fatal(err)
						}
					}
				}
				run(16 * k)() // warm every pool and buffer capacity
				once := testing.AllocsPerRun(1, run(k))
				twice := testing.AllocsPerRun(1, run(2*k))
				if twice != once {
					t.Fatalf("Run(%d) allocates %.0f times, Run(%d) %.0f: %.2f per warm iteration, want 0",
						k, once, 2*k, twice, (twice-once)/k)
				}
			})
		}
	}
}
