package bench

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/shard"
	"repro/internal/trace"
)

// freshFigure13 is CollectFigure13 with a fresh environment for every
// engine run: the oracle the forked sweep must reproduce exactly.
func freshFigure13(cfg Config) ([]SpeedupPoint, error) {
	run := func(class trace.Class, build func(*engine.Env) (engine.Engine, error)) (*engine.Report, error) {
		env, err := newEnv(cfg, cfg.Model, class)
		if err != nil {
			return nil, err
		}
		eng, err := build(env)
		if err != nil {
			return nil, err
		}
		return eng.Run(cfg.Iters)
	}
	var pts []SpeedupPoint
	for _, class := range trace.Classes {
		hybrid, err := run(class, buildHybrid)
		if err != nil {
			return nil, err
		}
		for _, frac := range CacheFracs {
			static, err := run(class, buildStatic(frac))
			if err != nil {
				return nil, err
			}
			sm, err := run(class, buildStrawMan(frac))
			if err != nil {
				return nil, err
			}
			sp, err := run(class, buildScratchPipe(frac, cfg.CoordOverlap))
			if err != nil {
				return nil, err
			}
			pts = append(pts, speedupPoint(class, frac, hybrid, static, sm, sp))
		}
	}
	return pts, nil
}

// TestForkedSweepMatchesFreshEnvs checks that the sweep's forked
// environments (one recorded stream per class, scratchpads reset between
// runs, a topology clone per fork) change no number: every Figure 13
// point equals the fresh-environment-per-run oracle's, co-located, at
// S=4 on cluster2x2 under hier coordination, and the same with a host
// death and periodic checkpoints mutating each run's topology.
func TestForkedSweepMatchesFreshEnvs(t *testing.T) {
	topo, err := hw.ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := hw.ParseFaultPlan("host1@5")
	if err != nil {
		t.Fatal(err)
	}
	sharded := func(c *Config) {
		c.Shards, c.Topology, c.Placement, c.Coord = 4, topo, hw.PlaceStripe, shard.CoordHier
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"colocated", func(*Config) {}},
		{"cluster2x2-hier", sharded},
		{"cluster2x2-hier-fail", func(c *Config) {
			sharded(c)
			c.Faults, c.CkptInterval = faults, 4
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mod(&cfg)
			got, err := CollectFigure13(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshFigure13(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i < len(got) && got[i] != want[i] {
						t.Fatalf("point %d: forked sweep %+v\nfresh envs %+v", i, got[i], want[i])
					}
				}
				t.Fatalf("forked sweep has %d points, fresh envs %d", len(got), len(want))
			}
		})
	}
}
