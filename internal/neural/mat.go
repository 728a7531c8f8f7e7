// Package neural is a small, dependency-free neural-network substrate
// sufficient to train the NL2SQL translators of this repository on a
// CPU: dense matrices with explicit gradients, embeddings, GRU cells,
// linear layers, Luong dot attention, softmax/cross-entropy, and the
// Adam optimizer. Modules implement explicit forward/backward passes
// (no tape autograd), which keeps the hot loops allocation-light and
// fast enough for the benchmark harness to retrain models many times.
//
// The paper trains its models in a mainstream deep-learning framework
// on GPUs; this package is the substituted substrate (see DESIGN.md).
package neural

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a row-major matrix with a weight buffer and a gradient
// buffer of the same shape.
type Mat struct {
	R, C int
	W    []float64
	G    []float64
}

// NewMat allocates a zero matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c)}
}

// NewMatRand allocates a matrix with Xavier/Glorot uniform init.
func NewMatRand(r, c int, rng *rand.Rand) *Mat {
	m := NewMat(r, c)
	scale := math.Sqrt(6.0 / float64(r+c))
	for i := range m.W {
		m.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.W[i*m.C+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.W[i*m.C+j] = v }

// Row returns a view of row i of the weights.
func (m *Mat) Row(i int) []float64 { return m.W[i*m.C : (i+1)*m.C] }

// GradRow returns a view of row i of the gradients.
func (m *Mat) GradRow(i int) []float64 { return m.G[i*m.C : (i+1)*m.C] }

// ZeroGrad clears the gradient buffer.
func (m *Mat) ZeroGrad() {
	for i := range m.G {
		m.G[i] = 0
	}
}

// Copy returns a deep copy of the weights only; the copy's gradient
// buffer is freshly zeroed. Use CopyWithGrads when the gradient state
// must travel with the weights, and Shadow when a worker needs its own
// gradient buffer over shared weights.
func (m *Mat) Copy() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.W, m.W)
	return out
}

// CopyWithGrads returns a deep copy of both the weight and the
// gradient buffer.
func (m *Mat) CopyWithGrads() *Mat {
	out := m.Copy()
	copy(out.G, m.G)
	return out
}

// Shadow returns a matrix that shares m's weight buffer but owns a
// fresh zeroed gradient buffer. Shadow matrices are the unit of the
// minibatch workers' shadow-gradient accumulation: during a batch the
// shared weights are read-only, each worker backprops into its own G,
// and the shadows are merged in deterministic order via AddGrad.
func (m *Mat) Shadow() *Mat {
	return &Mat{R: m.R, C: m.C, W: m.W, G: make([]float64, len(m.G))}
}

// AddGrad accumulates other's gradient buffer into m's (G += other.G).
// It panics when the shapes disagree — merging shadow gradients across
// mismatched parameter sets is a programming error, not a recoverable
// condition.
func (m *Mat) AddGrad(other *Mat) {
	if other.R != m.R || other.C != m.C || len(other.G) != len(m.G) {
		panic(fmt.Sprintf("neural: AddGrad shape mismatch: %v += %v", m, other))
	}
	for i, g := range other.G {
		m.G[i] += g
	}
}

// String summarizes the matrix shape.
func (m *Mat) String() string { return fmt.Sprintf("Mat(%dx%d)", m.R, m.C) }

// MulVec computes y = M v (len(v) == C, len(y) == R).
func (m *Mat) MulVec(v, y []float64) { m.mulRows(v, m.C, 1, y, m.R, false) }

// MulVecAdd computes y += M v.
func (m *Mat) MulVecAdd(v, y []float64) { m.mulRows(v, m.C, 1, y, m.R, true) }

// MulVecT computes y += Mᵀ v (len(v) == R, len(y) == C); used for
// gradient backflow through a linear map.
func (m *Mat) MulVecT(v, y []float64) {
	for i := 0; i < m.R; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.W[i*m.C : (i+1)*m.C]
		for j, rv := range row {
			y[j] += vi * rv
		}
	}
}

// AddOuterGrad accumulates G += u vᵀ (len(u) == R, len(v) == C); the
// weight-gradient update of a linear map.
func (m *Mat) AddOuterGrad(u, v []float64) {
	for i := 0; i < m.R; i++ {
		ui := u[i]
		if ui == 0 {
			continue
		}
		grow := m.G[i*m.C : (i+1)*m.C]
		for j, vj := range v {
			grow[j] += ui * vj
		}
	}
}

// Vector helpers -----------------------------------------------------

// NewVec allocates a zero vector.
func NewVec(n int) []float64 { return make([]float64, n) }

// Sigmoid applies the logistic function elementwise into dst.
func Sigmoid(src, dst []float64) {
	for i, v := range src {
		dst[i] = 1.0 / (1.0 + math.Exp(-v))
	}
}

// Tanh applies tanh elementwise into dst.
func Tanh(src, dst []float64) {
	for i, v := range src {
		dst[i] = math.Tanh(v)
	}
}

// Softmax writes the softmax of src into dst and returns dst.
//
// The kernel is a decoder hot path (every decode step runs it over the
// vocabulary and over the attention scores), so it is written to
// minimize passes: one max scan, one fused exp+sum pass, and a final
// normalization that is skipped entirely when the exponentials already
// sum to exactly 1 (a one-element input, or a numerically saturated
// distribution) — multiplying by 1/1 would be a bit-identical no-op.
func Softmax(src, dst []float64) []float64 {
	if len(src) == 1 {
		dst[0] = 1
		return dst
	}
	max := math.Inf(-1)
	for _, v := range src {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	if sum != 1 {
		inv := 1.0 / sum
		for i := range dst {
			dst[i] *= inv
		}
	}
	return dst
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += a*x.
func Axpy(a float64, x, y []float64) {
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Argmax returns the index of the maximum element (first on ties).
func Argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
