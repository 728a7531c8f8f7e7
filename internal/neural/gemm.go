package neural

// Batched inference substrate. The per-example training path in this
// package works one vector at a time (MulVec and friends), which is
// the right shape for backprop but wastes the weight matrices' cache
// locality at serving time: decoding k concurrent questions pays k
// full passes over every weight row. The types here give the serving
// path a batch dimension — a Batch is k activation vectors stacked
// row-major, MulBatch sweeps each weight row across all k examples
// while it is hot, and an Arena recycles the step-scratch buffers so a
// steady-state decode step allocates nothing.
//
// Equivalence invariant (tested in gemm_test.go and the models golden
// tests): every batched kernel performs, per row, exactly the same
// floating-point operations in exactly the same order as its
// per-example counterpart. Batched results are therefore bit-identical
// to the sequential path at every batch size — batching is a layout
// change, never a numeric one.

// Batch is a dense row-major K×N activation matrix: row b holds
// example b's vector. It is the unit of the batched inference path.
type Batch struct {
	K, N int
	W    []float64
}

// NewBatch allocates a zero batch of k rows of width n.
func NewBatch(k, n int) *Batch {
	return &Batch{K: k, N: n, W: make([]float64, k*n)}
}

// Row returns a view of row b.
func (b *Batch) Row(i int) []float64 { return b.W[i*b.N : (i+1)*b.N] }

// Prefix returns a view batch over the first k rows (no copy). Rows
// sorted so that active examples form a prefix can be stepped as one
// contiguous sub-batch.
func (b *Batch) Prefix(k int) *Batch {
	return &Batch{K: k, N: b.N, W: b.W[:k*b.N]}
}

// MulBatch computes Y = X Mᵀ for a batch X (K×C) into Y (K×R):
// Y[b][i] = Σ_j M[i][j]·X[b][j]. Each output row is bit-identical to
// MulVec on that row alone (see mulRows).
func (m *Mat) MulBatch(x, y *Batch) { m.mulRows(x.W, x.N, x.K, y.W, y.N, false) }

// MulBatchAdd computes Y += X Mᵀ with the same ordering guarantees as
// MulBatch (the batched MulVecAdd).
func (m *Mat) MulBatchAdd(x, y *Batch) { m.mulRows(x.W, x.N, x.K, y.W, y.N, true) }

// mulRows is the one matrix-vector kernel behind MulVec, MulVecAdd,
// MulBatch and MulBatchAdd: for each of the k input vectors of x
// (stride xn) it stores (or, with add, adds) M·x into the matching
// vector of y (stride yn).
//
// The kernel is register-blocked over weight rows: four rows are swept
// together, each with its own accumulator, so one load of x[j] feeds
// four independent add chains that overlap in the pipeline. Within a
// row nothing changes — one accumulator starting at 0, the products
// added in ascending j, no fused multiply-add — so every output is
// bit-identical to the plain one-row dot product (the oracle tests in
// gemm_test.go compare Float64bits). The weight-row block is the outer
// loop, so it stays cache-hot across all k inputs; rows left over after
// the last full block take the one-row loop.
func (m *Mat) mulRows(x []float64, xn, k int, y []float64, yn int, add bool) {
	c := m.C
	i := 0
	for ; i+4 <= m.R; i += 4 {
		w := m.W[i*c : (i+4)*c]
		r0, r1, r2, r3 := w[:c], w[c:2*c], w[2*c:3*c], w[3*c:]
		for b := 0; b < k; b++ {
			xr := x[b*xn : b*xn+c]
			r0, r1, r2, r3 := r0[:len(xr)], r1[:len(xr)], r2[:len(xr)], r3[:len(xr)]
			var s0, s1, s2, s3 float64
			for j, xv := range xr {
				s0 += r0[j] * xv
				s1 += r1[j] * xv
				s2 += r2[j] * xv
				s3 += r3[j] * xv
			}
			yr := y[b*yn+i : b*yn+i+4]
			if add {
				yr[0] += s0
				yr[1] += s1
				yr[2] += s2
				yr[3] += s3
			} else {
				yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			}
		}
	}
	for ; i < m.R; i++ {
		row := m.W[i*c : (i+1)*c]
		for b := 0; b < k; b++ {
			xr := x[b*xn : b*xn+c]
			row := row[:len(xr)]
			s := 0.0
			for j, xv := range xr {
				s += row[j] * xv
			}
			if add {
				y[b*yn+i] += s
			} else {
				y[b*yn+i] = s
			}
		}
	}
}

// AddBias adds a column bias (R×1 Mat) to every row of the batch.
func (b *Batch) AddBias(bias *Mat) {
	for r := 0; r < b.K; r++ {
		row := b.Row(r)
		for i := range row {
			row[i] += bias.W[i]
		}
	}
}

// SigmoidBatch applies the logistic function elementwise (same per-
// element computation as Sigmoid).
func SigmoidBatch(src, dst *Batch) {
	Sigmoid(src.W, dst.W)
}

// TanhBatch applies tanh elementwise.
func TanhBatch(src, dst *Batch) {
	Tanh(src.W, dst.W)
}

// SoftmaxRows applies Softmax independently to every row, reusing the
// sequential kernel per row so each row's normalization is
// bit-identical to the per-example path.
func SoftmaxRows(src, dst *Batch) *Batch {
	for b := 0; b < src.K; b++ {
		Softmax(src.Row(b), dst.Row(b))
	}
	return dst
}

// Arena is a recycling allocator for inference scratch: Vec and Batch
// hand out zeroed buffers drawn from an internal free list, and Reset
// returns every outstanding buffer to the list. A decode loop that
// Resets once per step reaches a steady state where no step allocates
// — the buffer sequence repeats, so every request is served from the
// same recycled slabs. An Arena is single-goroutine state; each
// batched decode owns its own.
type Arena struct {
	bufs [][]float64
	next int
	// Batch headers are recycled alongside their buffers — a scratch
	// *Batch escaping to the heap per kernel call would otherwise undo
	// the zero-alloc steady state.
	hdrs  []*Batch
	hnext int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// take returns a zeroed buffer of length n, recycling a prior slab
// when one with sufficient capacity is next in line.
func (a *Arena) take(n int) []float64 {
	if a.next < len(a.bufs) && cap(a.bufs[a.next]) >= n {
		buf := a.bufs[a.next][:n]
		a.next++
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	buf := make([]float64, n)
	if a.next < len(a.bufs) {
		// The slab in line is too small for this request; replace it so
		// the steady state converges instead of re-allocating forever.
		a.bufs[a.next] = buf
	} else {
		a.bufs = append(a.bufs, buf)
	}
	a.next++
	return buf
}

// Vec returns a zeroed scratch vector of length n valid until Reset.
func (a *Arena) Vec(n int) []float64 { return a.take(n) }

// Batch returns a zeroed k×n scratch batch valid until Reset.
func (a *Arena) Batch(k, n int) *Batch {
	var h *Batch
	if a.hnext < len(a.hdrs) {
		h = a.hdrs[a.hnext]
	} else {
		h = &Batch{}
		a.hdrs = append(a.hdrs, h)
	}
	a.hnext++
	h.K, h.N, h.W = k, n, a.take(k*n)
	return h
}

// Reset recycles every buffer and header handed out since the last
// Reset.
func (a *Arena) Reset() { a.next, a.hnext = 0, 0 }

// GateTable holds a GRU's input-gate products for every token of a
// vocabulary: row id of Z, R and H is Wz·e, Wr·e and Wh·e for the
// embedding row e of token id. Both GRUs of the seq2seq translator are
// fed embedding rows, so these products depend on the token id alone —
// one third of a step's multiply-adds, precomputed once per set of
// weights instead of once per step. A table is a snapshot: it must be
// rebuilt whenever the GRU's W matrices or the embedding change, and
// it is read-only afterwards, so concurrent decodes share it freely.
type GateTable struct {
	V, Hid  int
	Z, R, H []float64 // V×Hid, row-major
}

// BuildGateTable computes g's input-gate products for every row of the
// embedding e. Each row holds exactly the values MulBatch stores for
// that embedding row (the kernel's per-row result does not depend on
// the batch around it), so a step fed from the table is bit-identical
// to one fed the embedding rows.
func (g *GRU) BuildGateTable(e *Embedding) *GateTable {
	v, hid := e.E.R, g.Hid
	t := &GateTable{V: v, Hid: hid, Z: make([]float64, v*hid), R: make([]float64, v*hid), H: make([]float64, v*hid)}
	g.Wz.mulRows(e.E.W, e.Dim, v, t.Z, hid, false)
	g.Wr.mulRows(e.E.W, e.Dim, v, t.R, hid, false)
	g.Wh.mulRows(e.E.W, e.Dim, v, t.H, hid, false)
	return t
}

// gather copies the table rows of ids into an arena batch, clamping
// out-of-range ids to 0 exactly as Embedding.Lookup does.
func (t *GateTable) gather(rows []float64, ids []int, a *Arena) *Batch {
	out := a.Batch(len(ids), t.Hid)
	for b, id := range ids {
		if id < 0 || id >= t.V {
			id = 0
		}
		copy(out.Row(b), rows[id*t.Hid:(id+1)*t.Hid])
	}
	return out
}

// StepBatch computes one GRU step for a batch of examples whose inputs
// are the embeddings of token ids: given the ids, the GRU's gate table
// over that embedding, and hidden states H (K×Hid), it returns H'
// (K×Hid) drawn from the arena. Row b of the result is bit-identical to
// Forward(e.Lookup(ids[b]), H.Row(b)) — each gate starts from the
// table's W-term and then replays the sequential step's order (U-term,
// then bias, then the activation). No backprop cache is built; this is
// the inference-only path.
func (g *GRU) StepBatch(ids []int, t *GateTable, h *Batch, a *Arena) *Batch {
	hid := g.Hid
	k := len(ids)

	az := t.gather(t.Z, ids, a)
	g.Uz.MulBatchAdd(h, az)
	az.AddBias(g.Bz)
	z := a.Batch(k, hid)
	SigmoidBatch(az, z)

	ar := t.gather(t.R, ids, a)
	g.Ur.MulBatchAdd(h, ar)
	ar.AddBias(g.Br)
	r := a.Batch(k, hid)
	SigmoidBatch(ar, r)

	rh := a.Batch(k, hid)
	for i, rv := range r.W {
		rh.W[i] = rv * h.W[i]
	}
	ac := t.gather(t.H, ids, a)
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

// ForwardBatch computes Y = X Wᵀ + b for a batch, row-equivalent to
// Forward (same MulVec ordering, then the bias add).
func (l *Linear) ForwardBatch(x *Batch, a *Arena) *Batch {
	y := a.Batch(x.K, l.Out)
	l.W.MulBatch(x, y)
	y.AddBias(l.B)
	return y
}
