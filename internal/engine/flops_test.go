package engine_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/dlrm"
	"repro/internal/engine"
)

// TestMLPFlopsPerIteration holds the engines' closed-form dense FLOP
// count, which needs no model, to a built dlrm.Model's layers: forward
// plus backward is 3x the forward pass of both MLPs and the pairwise
// interaction. It checks the default model, the quick sweep's and Table
// I's MLP-intensive variant, and that the count is positive and grows
// with the batch.
func TestMLPFlopsPerIteration(t *testing.T) {
	intensive := bench.Quick().Model
	intensive.TopHidden = []int{4096, 4096, 2048, 1024} // as internal/bench/tablei.go builds it
	intensive.Lookups = 2
	for name, cfg := range map[string]dlrm.Config{
		"default":       dlrm.DefaultConfig(),
		"quick":         bench.Quick().Model,
		"mlp-intensive": intensive,
	} {
		t.Run(name, func(t *testing.T) {
			m, err := dlrm.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			b := cfg.BatchSize
			interaction := 2 * float64(b) * float64(cfg.NumInteractionPairs()) * float64(cfg.EmbeddingDim)
			want := 3 * (m.Bottom.FlopsForward(b) + m.Top.FlopsForward(b) + interaction)
			got := engine.MLPFlopsPerIteration(cfg)
			if got != want || got <= 0 {
				t.Fatalf("engine counts %v dense FLOPs per iteration, the model's layers %v", got, want)
			}
			doubled := cfg
			doubled.BatchSize *= 2
			if more := engine.MLPFlopsPerIteration(doubled); more <= got {
				t.Fatalf("batch %d counts %v FLOPs, batch %d %v: not growing with the batch", b, got, 2*b, more)
			}
		})
	}
}
