// Package nn implements the dense neural-network half of the DLRM: fully
// connected layers with ReLU activations (the bottom and top MLPs of
// Figure 1), a binary-cross-entropy-with-logits loss for click-through-rate
// prediction, and plain SGD — the optimizer the paper trains with.
//
// The implementation is deliberately sequential and allocation-stable so
// that two engines training the same stream produce bitwise-identical
// weights, which the integration tests rely on.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of an MLP.
type Layer interface {
	// Forward consumes the layer input (batch x in) and returns the
	// output (batch x out). Implementations may retain the input for use
	// in Backward.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients internally.
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// Params returns parameter/gradient pairs for the optimizer, or nil
	// for parameterless layers.
	Params() []Param
}

// Param is one trainable tensor with its accumulated gradient.
type Param struct {
	W  []float32
	dW []float32
}

// Weights exposes the parameter values (for checkpoint comparison in tests).
func (p Param) Weights() []float32 { return p.W }

// Linear is a fully connected layer: y = x*W + b, W is in x out.
type Linear struct {
	In, Out int
	W       *tensor.Matrix
	B       []float32
	dw      *tensor.Matrix
	db      []float32
	lastX   *tensor.Matrix
}

// NewLinear creates a Xavier-initialized fully connected layer using the
// deterministic rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   tensor.New(in, out),
		B:   make([]float32, out),
		dw:  tensor.New(in, out),
		db:  make([]float32, out),
	}
	l.W.XavierInit(in, out, rng)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: linear: input cols %d != in %d", x.Cols, l.In))
	}
	l.lastX = x
	y := tensor.New(x.Rows, l.Out)
	tensor.MatMul(y, x, l.W)
	tensor.AddBias(y, l.B)
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if l.lastX == nil {
		panic("nn: linear: Backward before Forward")
	}
	// dW += xᵀ dy ; db += colsum(dy) ; dx = dy Wᵀ.
	dwNew := tensor.New(l.In, l.Out)
	tensor.MatMulTN(dwNew, l.lastX, dy)
	tensor.AXPY(1, dwNew.Data, l.dw.Data)
	dbNew := make([]float32, l.Out)
	tensor.ColSums(dbNew, dy)
	tensor.AXPY(1, dbNew, l.db)
	dx := tensor.New(dy.Rows, l.In)
	tensor.MatMulNT(dx, dy, l.W)
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []Param {
	return []Param{{W: l.W.Data, dW: l.dw.Data}, {W: l.B, dW: l.db}}
}

// FlopsForward returns the forward FLOP count for a given batch size
// (2*in*out per sample), used by the timing model.
func (l *Linear) FlopsForward(batch int) float64 {
	return 2 * float64(batch) * float64(l.In) * float64(l.Out)
}

// ReLU is the elementwise rectifier.
type ReLU struct {
	lastX *tensor.Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.lastX = x
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if r.lastX == nil {
		panic("nn: relu: Backward before Forward")
	}
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range r.lastX.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// MLP is a sequential stack of layers.
type MLP struct {
	Layers []Layer
}

// NewMLP builds Linear+ReLU stacks for the given layer sizes; the final
// Linear has no activation (the caller applies the loss or interaction).
// sizes must contain at least two entries (input and output width).
func NewMLP(sizes []int, rng *rand.Rand) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: mlp: need >=2 sizes, got %v", sizes)
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			m.Layers = append(m.Layers, NewReLU())
		}
	}
	return m, nil
}

// Forward runs all layers in order.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs all layers in reverse, returning dL/d(input).
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns every trainable parameter in the stack.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// FlopsForward is the total forward FLOP count for one batch.
func (m *MLP) FlopsForward(batch int) float64 {
	var f float64
	for _, l := range m.Layers {
		if lin, ok := l.(*Linear); ok {
			f += lin.FlopsForward(batch)
		}
	}
	return f
}

// NumParams returns the number of trainable scalars.
func (m *MLP) NumParams() int {
	var n int
	for _, p := range m.Params() {
		n += len(p.W)
	}
	return n
}

// BCEWithLogits computes the mean binary cross entropy between logits and
// labels in {0,1}, and the gradient dL/dlogit = (sigmoid(z)-y)/batch.
func BCEWithLogits(logits *tensor.Matrix, labels []float32) (loss float32, grad *tensor.Matrix) {
	if logits.Cols != 1 || logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: bce: logits %dx%d vs %d labels", logits.Rows, logits.Cols, len(labels)))
	}
	grad = tensor.New(logits.Rows, 1)
	n := float32(logits.Rows)
	var sum float64
	for i := 0; i < logits.Rows; i++ {
		z := float64(logits.Data[i])
		y := float64(labels[i])
		// Numerically stable: log(1+exp(-|z|)) + max(z,0) - z*y.
		sum += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		s := 1 / (1 + math.Exp(-z))
		grad.Data[i] = (float32(s) - labels[i]) / n
	}
	return float32(sum / float64(logits.Rows)), grad
}

// Sigmoid returns the elementwise logistic of the logits (CTR predictions).
func Sigmoid(logits *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(logits.Rows, logits.Cols)
	for i, z := range logits.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(z))))
	}
	return out
}

// SGD is plain stochastic gradient descent with a fixed learning rate; the
// paper notes ScratchPipe leaves the SGD algorithm untouched.
type SGD struct {
	LR float32
}

// Step applies w -= lr*dw to every parameter and zeroes the gradients.
func (o SGD) Step(params []Param) {
	for _, p := range params {
		for i, g := range p.dW {
			p.W[i] -= o.LR * g
			p.dW[i] = 0
		}
	}
}
