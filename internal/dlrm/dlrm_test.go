package dlrm

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func tinyConfig() Config {
	return Config{
		NumTables:    2,
		EmbeddingDim: 4,
		Lookups:      3,
		DenseDim:     5,
		RowsPerTable: 100,
		BatchSize:    6,
		BottomHidden: []int{8},
		TopHidden:    []int{8},
		LR:           0.05,
	}
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mods := []func(*Config){
		func(c *Config) { c.NumTables = 0 },
		func(c *Config) { c.EmbeddingDim = 0 },
		func(c *Config) { c.Lookups = 0 },
		func(c *Config) { c.DenseDim = 0 },
		func(c *Config) { c.RowsPerTable = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.LR = 0 },
	}
	for i, mod := range mods {
		c := tinyConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigIsPaperScale(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8 tables x 10M rows x 128 dims x 4 B = 40.96 GB (the paper's
	// "40 GB of total model size").
	gb := c.ModelBytes() / 1e9
	if gb < 40 || gb > 42 {
		t.Errorf("model size %.2f GB, want ~41", gb)
	}
	if c.NumInteractionPairs() != 36 {
		t.Errorf("pairs = %d, want C(9,2)=36", c.NumInteractionPairs())
	}
	if c.TopInputDim() != 128+36 {
		t.Errorf("top input = %d", c.TopInputDim())
	}
}

func newTinyModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(tinyConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randInputs(t *testing.T, m *Model) (*tensor.Matrix, []*tensor.Matrix, []float32) {
	t.Helper()
	cfg := m.Config()
	dense := tensor.New(cfg.BatchSize, cfg.DenseDim)
	for i := range dense.Data {
		dense.Data[i] = float32((i%7)-3) / 4
	}
	pooled := make([]*tensor.Matrix, cfg.NumTables)
	for tt := range pooled {
		p := tensor.New(cfg.BatchSize, cfg.EmbeddingDim)
		for i := range p.Data {
			p.Data[i] = float32((i%5)-2) / 8
		}
		pooled[tt] = p
	}
	labels := make([]float32, cfg.BatchSize)
	for i := range labels {
		if i%2 == 0 {
			labels[i] = 1
		}
	}
	return dense, pooled, labels
}

func TestPredictShapeAndRange(t *testing.T) {
	m := newTinyModel(t)
	dense, pooled, _ := randInputs(t, m)
	p := m.Predict(dense, pooled)
	if p.Rows != 6 || p.Cols != 1 {
		t.Fatalf("predict shape %dx%d", p.Rows, p.Cols)
	}
	for _, v := range p.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("CTR prediction %v outside (0,1)", v)
		}
	}
}

func TestTrainStepReturnsGrads(t *testing.T) {
	m := newTinyModel(t)
	dense, pooled, labels := randInputs(t, m)
	res := m.TrainStep(dense, pooled, labels)
	if len(res.PooledGrads) != 2 {
		t.Fatalf("pooled grads %d", len(res.PooledGrads))
	}
	var nonZero bool
	for _, g := range res.PooledGrads {
		if g.Rows != 6 || g.Cols != 4 {
			t.Fatalf("grad shape %dx%d", g.Rows, g.Cols)
		}
		for _, v := range g.Data {
			if v != 0 {
				nonZero = true
			}
		}
	}
	if !nonZero {
		t.Fatal("all pooled gradients zero")
	}
	if math.IsNaN(float64(res.Loss)) {
		t.Fatal("NaN loss")
	}
}

// TestEmbeddingGradientCheck validates the interaction backward path: the
// gradient w.r.t. a pooled embedding input matches finite differences.
func TestEmbeddingGradientCheck(t *testing.T) {
	m := newTinyModel(t)
	dense, pooled, labels := randInputs(t, m)

	// Use a probe model clone by reconstructing with same seed: New is
	// deterministic, so a fresh model has identical weights.
	loss := func() float64 {
		probe, err := New(tinyConfig(), 21)
		if err != nil {
			t.Fatal(err)
		}
		logits := probe.forward(dense, pooled)
		var sum float64
		for i, z := range logits.Data {
			zz := float64(z)
			y := float64(labels[i])
			sum += math.Max(zz, 0) - zz*y + math.Log1p(math.Exp(-math.Abs(zz)))
		}
		return sum / float64(len(logits.Data))
	}

	res := m.TrainStep(dense, pooled, labels)
	const eps = 1e-2
	for _, idx := range []int{0, 5, 13} {
		orig := pooled[0].Data[idx]
		pooled[0].Data[idx] = orig + eps
		up := loss()
		pooled[0].Data[idx] = orig - eps
		down := loss()
		pooled[0].Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		analytic := float64(res.PooledGrads[0].Data[idx])
		if diff := math.Abs(numeric - analytic); diff > 5e-3 && diff > 0.2*math.Abs(numeric) {
			t.Errorf("pooled grad [%d]: analytic %v numeric %v", idx, analytic, numeric)
		}
	}
}

func TestTrainingLearns(t *testing.T) {
	m := newTinyModel(t)
	dense, pooled, labels := randInputs(t, m)
	var first, last float32
	for i := 0; i < 60; i++ {
		res := m.TrainStep(dense, pooled, labels)
		if i == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, err := New(tinyConfig(), 33)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(tinyConfig(), 33)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		wa, wb := pa[i].Weights(), pb[i].Weights()
		for j := range wa {
			if wa[j] != wb[j] {
				t.Fatal("same-seed models differ")
			}
		}
	}
	c, err := New(tinyConfig(), 34)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	pc := c.Params()
	for i := range pa {
		wa, wc := pa[i].Weights(), pc[i].Weights()
		for j := range wa {
			if wa[j] != wc[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different-seed models identical")
	}
}

func TestForwardShapeMismatchPanics(t *testing.T) {
	m := newTinyModel(t)
	dense, pooled, _ := randInputs(t, m)
	defer func() {
		if recover() == nil {
			t.Error("wrong pooled count accepted")
		}
	}()
	m.Predict(dense, pooled[:1])
}
