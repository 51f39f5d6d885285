// Quickstart: train a small DLRM with the ScratchPipe engine and compare
// it against the hybrid CPU-GPU baseline — both the simulated performance
// and the (bitwise identical) training result.
package main

import (
	"fmt"
	"log"

	"repro/scratchpipe"
)

func main() {
	// A laptop-scale model so functional (real float32) training is
	// instant; the control logic is identical at paper scale.
	model := scratchpipe.DefaultModel()
	model.RowsPerTable = 50_000
	model.BatchSize = 128
	model.Lookups = 8
	model.EmbeddingDim = 32
	model.BottomHidden = []int{64, 32}
	model.TopHidden = []int{64, 32}

	const iters = 40

	run := func(kind scratchpipe.Kind) *scratchpipe.Report {
		tr, err := scratchpipe.NewTrainer(scratchpipe.Config{
			EnvConfig: scratchpipe.EnvConfig{Model: model, Class: scratchpipe.Medium, Functional: true, Seed: 1},
			Engine:    kind,
			CacheFrac: 0.05,
		})
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		rep, err := tr.Train(iters)
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		if err := tr.Flush(); err != nil {
			log.Fatalf("%s: flush: %v", kind, err)
		}
		return rep
	}

	fmt.Println("ScratchPipe quickstart: 40 iterations, Medium locality, 5% cache")
	fmt.Println()
	hybrid := run(scratchpipe.KindHybrid)
	sp := run(scratchpipe.KindScratchPipe)

	fmt.Printf("%-22s %14s %12s %10s\n", "engine", "iter (sim ms)", "avg loss", "hit rate")
	for _, r := range []*scratchpipe.Report{hybrid, sp} {
		fmt.Printf("%-22s %14.3f %12.4f %9.1f%%\n",
			r.Engine, r.IterTime*1e3, r.AvgLoss, r.HitRate()*100)
	}
	fmt.Println()
	fmt.Printf("speedup: %.2fx — with identical training semantics\n", hybrid.IterTime/sp.IterTime)
	fmt.Printf("(losses match: hybrid %.6f vs scratchpipe %.6f)\n", hybrid.AvgLoss, sp.AvgLoss)
	fmt.Printf("prefetch fills: %d rows, eviction write-backs: %d rows\n", sp.Fills, sp.Evictions)
}
