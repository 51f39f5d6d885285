// Checkpoint & resume: train half a run under ScratchPipe with Adagrad,
// checkpoint (which flushes the GPU scratchpad — embeddings AND optimizer
// accumulators — back to the CPU tables), restore, and finish. The loss
// trajectory continues seamlessly because the checkpoint captures the
// complete training state.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/scratchpipe"
)

func main() {
	model := scratchpipe.DefaultModel()
	model.RowsPerTable = 20_000
	model.NumTables = 3
	model.EmbeddingDim = 16
	model.Lookups = 6
	model.BatchSize = 128
	model.BottomHidden = []int{32, 16}
	model.TopHidden = []int{64, 32}

	cfg := scratchpipe.Config{
		EnvConfig: scratchpipe.EnvConfig{
			Model:      model,
			Class:      scratchpipe.High,
			Optimizer:  scratchpipe.OptAdagrad,
			Functional: true,
			Seed:       4,
		},
		Engine:    scratchpipe.KindScratchPipe,
		CacheFrac: 0.05,
	}

	tr, err := scratchpipe.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1: 25 iterations with sparse Adagrad under ScratchPipe")
	rep1, err := tr.Train(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mean loss %.4f, hit rate %.1f%%\n", rep1.AvgLoss, rep1.HitRate()*100)

	var ckpt bytes.Buffer
	if err := tr.SaveCheckpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %.1f MB (embeddings + Adagrad accumulators + MLPs)\n",
		float64(ckpt.Len())/1e6)

	// Restore into the same trainer (in a real deployment this would be
	// a fresh process) and continue training.
	if err := tr.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 2: resumed; 25 more iterations")
	rep2, err := tr.Train(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mean loss %.4f (continuing to fall: %.4f -> %.4f)\n",
		rep2.AvgLoss, rep1.AvgLoss, rep2.AvgLoss)
	if rep2.AvgLoss >= rep1.AvgLoss {
		log.Fatal("resumed training did not continue improving")
	}
	fmt.Println("done: optimizer state survived the scratchpad round trip")
}
