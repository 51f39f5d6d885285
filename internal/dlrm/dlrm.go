// Package dlrm assembles the full recommendation model of Figure 1: a
// bottom MLP over continuous features, embedding layers over categorical
// features, a dot-product feature-interaction stage, and a top MLP that
// predicts the click-through rate.
//
// The model deliberately does *not* own the embedding tables. TrainStep
// takes the already-pooled embedding outputs and returns the gradients with
// respect to them, so that each training engine (hybrid CPU-GPU, static
// cache, straw-man, ScratchPipe, multi-GPU) can interpose its own cache and
// data-movement logic around identical dense math.
package dlrm

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config describes the DLRM architecture. The defaults mirror the paper's
// §V baseline (MLPerf-DLRM-derived): 8 tables x 10M rows x 128-dim
// embeddings, 20 lookups/table, batch 2048.
type Config struct {
	// NumTables is the number of embedding tables.
	NumTables int
	// EmbeddingDim is the embedding vector dimension; the bottom MLP's
	// output width must equal it for the dot interaction.
	EmbeddingDim int
	// Lookups is the number of gathers per table per sample.
	Lookups int
	// DenseDim is the number of continuous input features.
	DenseDim int
	// RowsPerTable is the embedding table height (used for sizing and
	// memory accounting; the model itself never touches tables).
	RowsPerTable int64
	// BatchSize is the training mini-batch size.
	BatchSize int
	// BottomHidden lists the bottom MLP hidden widths (the final
	// EmbeddingDim-wide layer is appended automatically).
	BottomHidden []int
	// TopHidden lists the top MLP hidden widths (the final 1-wide logit
	// layer is appended automatically).
	TopHidden []int
	// LR is the SGD learning rate.
	LR float32
}

// DefaultConfig returns the paper's default model configuration: a 40 GB
// model (8 x 10M x 128 x 4B) with MLPerf-DLRM MLP shapes.
func DefaultConfig() Config {
	return Config{
		NumTables:    8,
		EmbeddingDim: 128,
		Lookups:      20,
		DenseDim:     13,
		RowsPerTable: 10_000_000,
		BatchSize:    2048,
		BottomHidden: []int{512, 256},
		TopHidden:    []int{1024, 1024, 512, 256},
		LR:           0.01,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.NumTables <= 0:
		return fmt.Errorf("dlrm: NumTables %d <= 0", c.NumTables)
	case c.EmbeddingDim <= 0:
		return fmt.Errorf("dlrm: EmbeddingDim %d <= 0", c.EmbeddingDim)
	case c.Lookups <= 0:
		return fmt.Errorf("dlrm: Lookups %d <= 0", c.Lookups)
	case c.DenseDim <= 0:
		return fmt.Errorf("dlrm: DenseDim %d <= 0", c.DenseDim)
	case c.RowsPerTable <= 0:
		return fmt.Errorf("dlrm: RowsPerTable %d <= 0", c.RowsPerTable)
	case c.BatchSize <= 0:
		return fmt.Errorf("dlrm: BatchSize %d <= 0", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("dlrm: LR %g <= 0", c.LR)
	}
	return nil
}

// ModelBytes returns the total embedding model size in bytes (the paper's
// "40 GB" headline for the default config).
func (c Config) ModelBytes() float64 {
	return float64(c.NumTables) * float64(c.RowsPerTable) * float64(c.EmbeddingDim) * 4
}

// NumInteractionPairs returns the number of pairwise dot products among the
// (NumTables + 1) feature vectors entering the interaction stage.
func (c Config) NumInteractionPairs() int {
	n := c.NumTables + 1
	return n * (n - 1) / 2
}

// TopInputDim returns the width of the top MLP input: the bottom MLP output
// concatenated with all pairwise dots.
func (c Config) TopInputDim() int {
	return c.EmbeddingDim + c.NumInteractionPairs()
}

// Model is the dense part of the DLRM (both MLPs and the interaction).
type Model struct {
	cfg    Config
	Bottom *nn.MLP
	Top    *nn.MLP
	opt    nn.SGD

	// lastVectors retains the (NumTables+1) interaction inputs between
	// forward and backward.
	lastVectors []*tensor.Matrix
}

// New constructs a deterministic model from cfg and seed.
func New(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	bottomSizes := append(append([]int{cfg.DenseDim}, cfg.BottomHidden...), cfg.EmbeddingDim)
	bottom, err := nn.NewMLP(bottomSizes, rng)
	if err != nil {
		return nil, err
	}
	topSizes := append(append([]int{cfg.TopInputDim()}, cfg.TopHidden...), 1)
	top, err := nn.NewMLP(topSizes, rng)
	if err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, Bottom: bottom, Top: top, opt: nn.SGD{LR: cfg.LR}}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// interactionPairs iterates deterministic (i, j) with i < j over the
// (NumTables+1) interaction vectors; index 0 is the bottom MLP output.
func (m *Model) interactionPairs(f func(i, j int)) {
	n := m.cfg.NumTables + 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f(i, j)
		}
	}
}

// forward runs bottom MLP + interaction + top MLP and returns the logits.
func (m *Model) forward(dense *tensor.Matrix, pooled []*tensor.Matrix) *tensor.Matrix {
	if len(pooled) != m.cfg.NumTables {
		panic(fmt.Sprintf("dlrm: %d pooled tables for %d-table model", len(pooled), m.cfg.NumTables))
	}
	batch := dense.Rows
	bottomOut := m.Bottom.Forward(dense)
	vectors := make([]*tensor.Matrix, 0, m.cfg.NumTables+1)
	vectors = append(vectors, bottomOut)
	vectors = append(vectors, pooled...)
	for t, v := range vectors {
		if v.Rows != batch || v.Cols != m.cfg.EmbeddingDim {
			panic(fmt.Sprintf("dlrm: interaction vector %d is %dx%d, want %dx%d", t, v.Rows, v.Cols, batch, m.cfg.EmbeddingDim))
		}
	}
	m.lastVectors = vectors

	features := tensor.New(batch, m.cfg.TopInputDim())
	dim := m.cfg.EmbeddingDim
	for s := 0; s < batch; s++ {
		copy(features.Row(s)[:dim], bottomOut.Row(s))
	}
	col := dim
	m.interactionPairs(func(i, j int) {
		for s := 0; s < batch; s++ {
			features.Row(s)[col] = tensor.Dot(vectors[i].Row(s), vectors[j].Row(s))
		}
		col++
	})
	return m.Top.Forward(features)
}

// Predict returns sigmoid CTR probabilities for a batch (inference path,
// used by the examples).
func (m *Model) Predict(dense *tensor.Matrix, pooled []*tensor.Matrix) *tensor.Matrix {
	return nn.Sigmoid(m.forward(dense, pooled))
}

// StepResult carries the outputs of one training step.
type StepResult struct {
	// Loss is the mean BCE loss of the batch.
	Loss float32
	// PooledGrads[t] is dL/d(pooled embedding output of table t),
	// batch x dim — what the engine must duplicate, coalesce, and
	// scatter into its embedding store.
	PooledGrads []*tensor.Matrix
}

// TrainStep runs forward + backward + SGD on the dense parameters and
// returns the gradients the embedding layers must apply. The embedding
// update itself is the engine's job (that is the entire subject of the
// paper).
func (m *Model) TrainStep(dense *tensor.Matrix, pooled []*tensor.Matrix, labels []float32) StepResult {
	logits := m.forward(dense, pooled)
	loss, dlogits := nn.BCEWithLogits(logits, labels)

	dfeatures := m.Top.Backward(dlogits)
	batch := dense.Rows
	dim := m.cfg.EmbeddingDim
	vectors := m.lastVectors
	dvecs := make([]*tensor.Matrix, len(vectors))
	for t := range dvecs {
		dvecs[t] = tensor.New(batch, dim)
	}
	// Direct (concatenated) path into the bottom vector.
	for s := 0; s < batch; s++ {
		copy(dvecs[0].Row(s), dfeatures.Row(s)[:dim])
	}
	// Dot-product path: d(v_i . v_j) flows into both operands.
	col := dim
	m.interactionPairs(func(i, j int) {
		for s := 0; s < batch; s++ {
			g := dfeatures.Row(s)[col]
			if g == 0 {
				continue
			}
			tensor.AXPY(g, vectors[j].Row(s), dvecs[i].Row(s))
			tensor.AXPY(g, vectors[i].Row(s), dvecs[j].Row(s))
		}
		col++
	})
	m.Bottom.Backward(dvecs[0])

	m.opt.Step(m.Top.Params())
	m.opt.Step(m.Bottom.Params())
	return StepResult{Loss: loss, PooledGrads: dvecs[1:]}
}

// Params returns all dense trainable parameters (for checkpoint comparison
// in the equivalence tests).
func (m *Model) Params() []nn.Param {
	return append(m.Bottom.Params(), m.Top.Params()...)
}
