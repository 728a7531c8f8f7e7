package neural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randVec fills a length-n vector from rng.
func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randBatch stacks k rng-filled rows.
func randBatch(k, n int, rng *rand.Rand) *Batch {
	b := NewBatch(k, n)
	for i := range b.W {
		b.W[i] = rng.NormFloat64()
	}
	return b
}

// requireRowsEqual asserts that batch row b is bit-identical to want.
func requireRowsEqual(t *testing.T, what string, got *Batch, b int, want []float64) {
	t.Helper()
	row := got.Row(b)
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("%s: row %d differs at %d: batched %v, sequential %v", what, b, i, row[i], want[i])
		}
	}
}

// refMulRow is the test oracle for every matrix-vector kernel: the
// plain one-row dot product, one accumulator, products added in
// ascending j. The register-blocked kernels must reproduce it bit for
// bit.
func refMulRow(m *Mat, i int, x []float64) float64 {
	s := 0.0
	for j, rv := range m.Row(i) {
		s += rv * x[j]
	}
	return s
}

// requireBits asserts Float64bits equality: a kernel that merely
// rounds the same sum differently must fail.
func requireBits(t *testing.T, what string, i int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: output %d = %v (%#x), oracle %v (%#x)", what, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestMulKernelsOracle: MulVec, MulVecAdd, MulBatch and MulBatchAdd
// are bit-identical to the one-row reference loop at every shape the
// blocking can split awkwardly — row counts below, at and around the
// block of four, odd widths, and batches of one and many.
func TestMulKernelsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, r := range []int{1, 2, 3, 4, 5, 7, 96, 257} {
		for _, c := range []int{1, 3, 48, 96, 192} {
			m := NewMatRand(r, c, rng)
			shape := fmt.Sprintf("R=%d C=%d", r, c)

			v := randVec(c, rng)
			y := NewVec(r)
			m.MulVec(v, y)
			y0 := randVec(r, rng)
			yAdd := append([]float64(nil), y0...)
			m.MulVecAdd(v, yAdd)
			for i := 0; i < r; i++ {
				want := refMulRow(m, i, v)
				requireBits(t, "MulVec "+shape, i, y[i], want)
				requireBits(t, "MulVecAdd "+shape, i, yAdd[i], y0[i]+want)
			}

			for _, k := range []int{1, 3, 8} {
				x := randBatch(k, c, rng)
				yb := NewBatch(k, r)
				m.MulBatch(x, yb)
				yb0 := randBatch(k, r, rng)
				ybAdd := NewBatch(k, r)
				copy(ybAdd.W, yb0.W)
				m.MulBatchAdd(x, ybAdd)
				for b := 0; b < k; b++ {
					what := fmt.Sprintf("%s k=%d row %d", shape, k, b)
					for i := 0; i < r; i++ {
						want := refMulRow(m, i, x.Row(b))
						requireBits(t, "MulBatch "+what, i, yb.Row(b)[i], want)
						requireBits(t, "MulBatchAdd "+what, i, ybAdd.Row(b)[i], yb0.Row(b)[i]+want)
					}
				}
			}
		}
	}
}

// lookupBatch is the embedding gather StepBatch used to be fed: the
// rows of ids (clamped as Lookup clamps them) copied into an arena
// batch. It survives as half of the StepBatch oracle.
func lookupBatch(e *Embedding, ids []int, a *Arena) *Batch {
	out := a.Batch(len(ids), e.Dim)
	for b, id := range ids {
		copy(out.Row(b), e.Lookup(id))
	}
	return out
}

// stepBatchEmb is the embedding-fed batched GRU step the gate tables
// replaced, kept as the oracle of the table-driven StepBatch: every
// gate computes W·x with MulBatch, then adds U·h, the bias and the
// activation.
func stepBatchEmb(g *GRU, x, h *Batch, a *Arena) *Batch {
	hid, k := g.Hid, x.K
	az := a.Batch(k, hid)
	g.Wz.MulBatch(x, az)
	g.Uz.MulBatchAdd(h, az)
	az.AddBias(g.Bz)
	z := a.Batch(k, hid)
	SigmoidBatch(az, z)

	ar := a.Batch(k, hid)
	g.Wr.MulBatch(x, ar)
	g.Ur.MulBatchAdd(h, ar)
	ar.AddBias(g.Br)
	r := a.Batch(k, hid)
	SigmoidBatch(ar, r)

	rh := a.Batch(k, hid)
	for i, rv := range r.W {
		rh.W[i] = rv * h.W[i]
	}
	ac := a.Batch(k, hid)
	g.Wh.MulBatch(x, ac)
	g.Uh.MulBatchAdd(rh, ac)
	ac.AddBias(g.Bh)
	c := a.Batch(k, hid)
	TanhBatch(ac, c)

	hn := a.Batch(k, hid)
	for i := range hn.W {
		hn.W[i] = (1-z.W[i])*h.W[i] + z.W[i]*c.W[i]
	}
	return hn
}

// stepIDs returns k token ids for a vocabulary of v, with out-of-range
// ids (negative and past the end) mixed in, which the table must clamp
// to row 0 exactly as Embedding.Lookup does.
func stepIDs(k, v int, rng *rand.Rand) []int {
	ids := make([]int, k)
	for b := range ids {
		switch b % 4 {
		case 1:
			ids[b] = -1 - rng.Intn(3)
		case 3:
			ids[b] = v + rng.Intn(3)
		default:
			ids[b] = rng.Intn(v)
		}
	}
	return ids
}

// TestGateTableStepBatchOracle: the table-driven StepBatch is
// Float64bits-identical to the embedding-fed step it replaced, for
// batches of 1, 3 and 8 including out-of-range ids, at the seq2seq
// default shape and at an odd one the register blocking splits
// awkwardly.
func TestGateTableStepBatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []struct{ v, in, hid int }{{257, 48, 96}, {11, 5, 7}} {
		ps := &ParamSet{}
		e := NewEmbedding(ps, "e", shape.v, shape.in, rng)
		g := NewGRU(ps, "g", shape.in, shape.hid, rng)
		tab := g.BuildGateTable(e)
		arena := NewArena()
		for _, k := range []int{1, 3, 8} {
			ids := stepIDs(k, shape.v, rng)
			h := randBatch(k, shape.hid, rng)
			got := g.StepBatch(ids, tab, h, arena)
			want := stepBatchEmb(g, lookupBatch(e, ids, arena), h, arena)
			for b := 0; b < k; b++ {
				for i := range want.Row(b) {
					requireBits(t, fmt.Sprintf("V=%d hid=%d k=%d row %d (id %d)", shape.v, shape.hid, k, b, ids[b]), i, got.Row(b)[i], want.Row(b)[i])
				}
			}
			arena.Reset()
		}
	}
}

// TestGRUStepBatchMatchesForward: batched GRU steps are bit-identical
// per row to the sequential Forward on the embedding rows, including
// after chained steps.
func TestGRUStepBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := &ParamSet{}
	e := NewEmbedding(ps, "e", 20, 6, rng)
	g := NewGRU(ps, "g", 6, 10, rng)
	tab := g.BuildGateTable(e)
	arena := NewArena()
	for _, k := range []int{1, 3, 8} {
		ids := stepIDs(k, 20, rng)
		h := randBatch(k, 10, rng)
		// Two chained steps through the arena (with a Reset between, as
		// the decode loop does) to prove recycled buffers stay correct.
		seqH := make([][]float64, k)
		for b := 0; b < k; b++ {
			h1, _ := g.Forward(e.Lookup(ids[b]), h.Row(b))
			h2, _ := g.Forward(e.Lookup(ids[b]), h1)
			seqH[b] = h2
		}
		hn := g.StepBatch(ids, tab, h, arena)
		// Persist hn before Reset: the next step's input must survive
		// recycling, exactly as TranslateBatch copies states out.
		carry := NewBatch(k, 10)
		copy(carry.W, hn.W)
		arena.Reset()
		hn2 := g.StepBatch(ids, tab, carry, arena)
		for b := 0; b < k; b++ {
			requireRowsEqual(t, fmt.Sprintf("StepBatch k=%d", k), hn2, b, seqH[b])
		}
		arena.Reset()
	}
}

// TestLinearEmbeddingSoftmaxBatch covers the remaining batched
// modules, Linear.ForwardBatch and SoftmaxRows, fed through the
// oracle's embedding gather (itself checked against Lookup).
func TestLinearEmbeddingSoftmaxBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := &ParamSet{}
	l := NewLinear(ps, "l", 7, 12, rng)
	e := NewEmbedding(ps, "e", 20, 7, rng)
	arena := NewArena()

	ids := []int{0, 5, 19, -2, 25, 5} // includes clamped out-of-range ids
	xb := lookupBatch(e, ids, arena)
	for b, id := range ids {
		requireRowsEqual(t, "lookupBatch", xb, b, e.Lookup(id))
	}

	yb := l.ForwardBatch(xb, arena)
	for b := range ids {
		requireRowsEqual(t, "Linear.ForwardBatch", yb, b, l.Forward(xb.Row(b)))
	}

	sm := arena.Batch(yb.K, yb.N)
	SoftmaxRows(yb, sm)
	for b := range ids {
		want := Softmax(append([]float64(nil), yb.Row(b)...), NewVec(yb.N))
		requireRowsEqual(t, "SoftmaxRows", sm, b, want)
	}
}

// TestArenaSteadyStateAllocs: after the first step warms the arena, a
// repeated decode-step-shaped workload must allocate nothing.
func TestArenaSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := &ParamSet{}
	e := NewEmbedding(ps, "e", 20, 8, rng)
	g := NewGRU(ps, "g", 8, 16, rng)
	l := NewLinear(ps, "l", 16, 32, rng)
	tab := g.BuildGateTable(e)
	arena := NewArena()
	ids := stepIDs(8, 20, rng)
	h := randBatch(8, 16, rng)
	step := func() {
		hn := g.StepBatch(ids, tab, h, arena)
		logits := l.ForwardBatch(hn, arena)
		SoftmaxRows(logits, arena.Batch(logits.K, logits.N))
		arena.Reset()
	}
	step() // warm the arena
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("steady-state batched step allocates %.1f times per run, want 0", allocs)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks: the per-example matvec inference path against the
// batched GEMM path, at the decode-step granularity the serving layer
// batches. ns/op and allocs/op are per batch (k examples); divide by k
// for per-example cost. The CI gate (internal/serve) holds the
// batched:sequential allocs and ns ratios to the checked-in baseline.
// ---------------------------------------------------------------------

// benchModules builds a decode-step-sized embedding + GRU + output
// projection (embedding 48, hidden 96, vocab 512 — the Seq2Seq
// defaults' shape class).
func benchModules(rng *rand.Rand) (*Embedding, *GRU, *Linear) {
	ps := &ParamSet{}
	e := NewEmbedding(ps, "e", 512, 48, rng)
	g := NewGRU(ps, "g", 48, 96, rng)
	l := NewLinear(ps, "l", 96, 512, rng)
	return e, g, l
}

// BenchmarkDecodeStepMatVec is the sequential baseline: k independent
// per-example forward steps (embedding lookup + GRU + vocab projection
// + softmax), one vector at a time through the training forward pass.
func BenchmarkDecodeStepMatVec(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			e, g, l := benchModules(rng)
			ids := stepIDs(k, 512, rng)
			hs := make([][]float64, k)
			for i := range hs {
				hs[i] = randVec(96, rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < k; i++ {
					hn, _ := g.Forward(e.Lookup(ids[i]), hs[i])
					logits := l.Forward(hn)
					Softmax(logits, NewVec(len(logits)))
				}
			}
		})
	}
}

// BenchmarkDecodeStepGEMM is the inference path: the same k examples
// advanced by one arena-backed batched step whose input-gate terms come
// from the GRU's gate table (built once, outside the timer, as a model
// builds it once per set of weights).
func BenchmarkDecodeStepGEMM(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			e, g, l := benchModules(rng)
			tab := g.BuildGateTable(e)
			ids := stepIDs(k, 512, rng)
			h := randBatch(k, 96, rng)
			arena := NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				hn := g.StepBatch(ids, tab, h, arena)
				logits := l.ForwardBatch(hn, arena)
				SoftmaxRows(logits, arena.Batch(logits.K, logits.N))
				arena.Reset()
			}
		})
	}
}
