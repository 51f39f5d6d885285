package scratchpipe

import (
	"testing"
)

func smallModel() ModelConfig {
	m := DefaultModel()
	m.RowsPerTable = 2000
	m.BatchSize = 16
	m.Lookups = 4
	m.EmbeddingDim = 8
	m.NumTables = 2
	m.BottomHidden = []int{8}
	m.TopHidden = []int{16}
	return m
}

func TestNewTrainerDefaults(t *testing.T) {
	tr, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel()}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tr.Config()
	if cfg.Engine != KindScratchPipe || cfg.CacheFrac != 0.02 || cfg.Policy != LRU {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if tr.Engine() != "scratchpipe" {
		t.Fatalf("engine = %s", tr.Engine())
	}
}

func TestAllKindsTrain(t *testing.T) {
	for _, kind := range Kinds {
		tr, err := NewTrainer(Config{
			EnvConfig: EnvConfig{Model: smallModel(), Class: Medium, Functional: true, Seed: 3},
			Engine:    kind,
			CacheFrac: 0.05,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rep, err := tr.Train(10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Iters != 10 || rep.IterTime <= 0 {
			t.Fatalf("%s: report %+v", kind, rep)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("%s flush: %v", kind, err)
		}
	}
}

func TestUnknownKindRejected(t *testing.T) {
	if _, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel()}, Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestTraceUtilities checks the facade's locality-class parser and its
// pipeline stage list.
func TestTraceUtilities(t *testing.T) {
	if _, err := ParseClass("High"); err != nil {
		t.Fatal(err)
	}
	if len(PipelineStages()) != 6 {
		t.Fatalf("stages = %v", PipelineStages())
	}
}

func TestParallelFunctionalEquivalenceViaFacade(t *testing.T) {
	runOnce := func(parallel bool) *Report {
		tr, err := NewTrainer(Config{
			EnvConfig: EnvConfig{Model: smallModel(), Class: Low, Functional: true, Seed: 9},
			CacheFrac: 0.05,
			Parallel:  parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tr.Train(12)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := runOnce(false)
	par := runOnce(true)
	if seq.AvgLoss != par.AvgLoss {
		t.Fatalf("parallel pipeline changed training: %v vs %v", seq.AvgLoss, par.AvgLoss)
	}
}

// TestTopologyPlacementViaFacade: the public Config's topology/placement
// knobs price coordination without touching cache behaviour or training
// results, and reject unknown placement policies.
func TestTopologyPlacementViaFacade(t *testing.T) {
	topo, err := ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel(), Class: Medium, Shards: 4, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	placed, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel(), Class: Medium, Shards: 4, Seed: 3,
		Topology: topo, Placement: PlaceLoadAware}})
	if err != nil {
		t.Fatal(err)
	}
	repBase, err := base.Train(12)
	if err != nil {
		t.Fatal(err)
	}
	repPlaced, err := placed.Train(12)
	if err != nil {
		t.Fatal(err)
	}
	if repBase.CoordTime != 0 {
		t.Fatalf("unplaced CoordTime %g", repBase.CoordTime)
	}
	if repPlaced.CoordTime <= 0 {
		t.Fatal("placed run reports no coordination latency")
	}
	if repBase.Hits != repPlaced.Hits || repBase.Misses != repPlaced.Misses ||
		repBase.Evictions != repPlaced.Evictions {
		t.Fatalf("placement changed cache behaviour: %+v vs %+v", repBase, repPlaced)
	}
	if repBase.AvgLoss != repPlaced.AvgLoss {
		t.Fatalf("placement changed training: loss %v vs %v", repBase.AvgLoss, repPlaced.AvgLoss)
	}
	if _, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel(), Placement: "bogus"}}); err == nil {
		t.Fatal("unknown placement policy accepted by the facade")
	}
}

// TestReshardViaFacade: an elastic schedule threaded through the public
// Config must reshard mid-run, price the migration on the topology, and
// leave training results and cache statistics untouched.
func TestReshardViaFacade(t *testing.T) {
	spec, err := ParseReshardSpec("6:4,12:2")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := ParseTopology("cluster2x2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel(), Class: Medium, Seed: 3, Functional: true}})
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := NewTrainer(Config{EnvConfig: EnvConfig{Model: smallModel(), Class: Medium, Seed: 3, Functional: true,
		Topology: topo, Reshard: spec}})
	if err != nil {
		t.Fatal(err)
	}
	repBase, err := base.Train(20)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := elastic.Train(20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalShards != 2 || rep.Resharding.Events == 0 {
		t.Fatalf("schedule did not execute: final shards %d, %+v", rep.FinalShards, rep.Resharding)
	}
	if rep.MigrationTime <= 0 {
		t.Fatal("cross-node migration not priced via the facade")
	}
	if rep.Hits != repBase.Hits || rep.Misses != repBase.Misses || rep.Evictions != repBase.Evictions {
		t.Fatalf("resharding changed cache behaviour: %+v vs %+v", repBase, rep)
	}
	if rep.AvgLoss != repBase.AvgLoss {
		t.Fatalf("resharding changed training: loss %v vs %v", repBase.AvgLoss, rep.AvgLoss)
	}
	if _, err := ParseReshardSpec("bogus"); err == nil {
		t.Fatal("bogus reshard spec accepted")
	}
}
