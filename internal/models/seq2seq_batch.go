package models

import (
	"context"
	"math"
	"sort"

	"repro/internal/neural"
	"repro/internal/tokens"
)

// BatchTranslator is the optional contract for translators that can
// decode many prepared questions in one batched forward pass. The
// serving layer's microbatcher (internal/serve) gathers concurrent
// cache-missing requests and flushes them through TranslateBatch, so
// k concurrent users pay one sweep over the model weights instead of
// k. The contract is strict: row r of the result must be bit-identical
// to Translate(nls[r], schemaToks) — batching is a throughput
// optimization, never a semantic one (golden tests in
// batch_translate_test.go).
type BatchTranslator interface {
	Translator
	// TranslateBatch decodes every input in one batched pass and
	// returns one token sequence per input, index-aligned.
	TranslateBatch(nls [][]string, schemaToks []string) [][]string
}

// ContextTranslator is the optional contract for translators whose
// decode observes cancellation: the runtime's tier chain prefers
// TranslateContext over Translate when a model offers it, passing the
// per-tier deadline context. The serving layer's batching adapter
// implements it so a cancelled request can leave a pending microbatch
// cleanly instead of blocking until the flush.
type ContextTranslator interface {
	// TranslateContext is Translate bounded by ctx; a cancelled decode
	// returns nil.
	TranslateContext(ctx context.Context, nl, schemaToks []string) []string
}

// TranslateEach is the generic per-item fallback for translators
// without a native batched path: it preserves the batch call shape by
// looping Translate.
func TranslateEach(t Translator, nls [][]string, schemaToks []string) [][]string {
	out := make([][]string, len(nls))
	for i, nl := range nls {
		out[i] = t.Translate(nl, schemaToks)
	}
	return out
}

var _ BatchTranslator = (*Seq2Seq)(nil)

// TranslateBatch implements BatchTranslator with batched greedy
// decoding: the k inputs advance in lockstep through arena-backed
// GEMM kernels (neural.StepBatch / ForwardBatch), so each weight row
// is swept once per step for the whole batch. The GRUs' input-gate
// terms come from the model's gate tables, and the generate/copy
// mixture runs over each row's copy plan. The encoder sorts rows
// by input length (longest first) so the rows still consuming tokens
// at timestep t always form a batch prefix; the decoder keeps a
// shrinking active set, with rows leaving the batch at their EOS.
//
// This is the only greedy decoder: Translate is this call at k=1. Per-
// row output does not depend on the batch around it — every batched
// kernel performs each row's operations in the order of the scalar
// forward pass (encode/forwardStep, kept for training and beam search),
// and the golden tests hold it to the scalar greedy loop token for
// token.
func (m *Seq2Seq) TranslateBatch(nls [][]string, schemaToks []string) [][]string {
	k := len(nls)
	out := make([][]string, k)
	if m.vocab == nil || k == 0 {
		return out
	}
	hid := m.cfg.HidDim
	arena := neural.NewArena()

	// Prepare per-row inputs.
	plans := make([]*copyPlan, k)
	idSeqs := make([][]int, k)
	maxT, total := 0, 0
	for r, nl := range nls {
		input := InputSequence(nl, schemaToks)
		idSeqs[r] = m.vocab.Encode(input)
		plans[r] = newCopyPlan(m.vocab, input, idSeqs[r])
		if len(idSeqs[r]) > maxT {
			maxT = len(idSeqs[r])
		}
		total += len(idSeqs[r])
	}
	// Longest-first row order (stable on index): the rows with a token
	// left at timestep t are then always a prefix of the sorted batch.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(idSeqs[order[a]]) > len(idSeqs[order[b]])
	})

	// Encoder. The per-position hidden states feed attention at every
	// decode step, so they persist for the whole call in one slab.
	slab := make([]float64, total*hid)
	states := make([][][]float64, k) // states[row][t] is a hid-view into slab
	off := 0
	for r, ids := range idSeqs {
		states[r] = make([][]float64, len(ids))
		for t := range ids {
			states[r][t] = slab[off : off+hid]
			off += hid
		}
	}
	h := neural.NewBatch(k, hid) // encoder hidden, sorted-row order
	prev := make([]int, k)
	for t := 0; t < maxT; t++ {
		active := 0
		for active < k && len(idSeqs[order[active]]) > t {
			active++
		}
		if active == 0 {
			break
		}
		for s := 0; s < active; s++ {
			prev[s] = idSeqs[order[s]][t]
		}
		hn := m.enc.StepBatch(prev[:active], m.encTab, h.Prefix(active), arena)
		for s := 0; s < active; s++ {
			copy(states[order[s]][t], hn.Row(s))
			copy(h.Row(s), hn.Row(s))
		}
		arena.Reset()
	}

	// Decoder: greedy over the active set, seeded with each row's
	// final encoder state.
	type rowState struct {
		r    int       // original row index
		prev int       // previous token id
		h    []float64 // persistent decoder hidden
	}
	hslab := make([]float64, k*hid)
	active := make([]*rowState, 0, k)
	for r := 0; r < k; r++ {
		hr := hslab[r*hid : (r+1)*hid]
		if T := len(idSeqs[r]); T > 0 {
			copy(hr, states[r][T-1])
		}
		active = append(active, &rowState{r: r, prev: tokens.BosID, h: hr})
	}
	alphas := make([][]float64, k)
	for step := 0; step < m.cfg.MaxOutLen && len(active) > 0; step++ {
		na := len(active)
		for s, rs := range active {
			prev[s] = rs.prev
		}
		hb := arena.Batch(na, hid)
		for s, rs := range active {
			copy(hb.Row(s), rs.h)
		}
		hn := m.dec.StepBatch(prev[:na], m.decTab, hb, arena)

		// Luong dot attention and [h;ctx] assembly, per row (ragged
		// encoder lengths keep this part sequential; it is O(T·hid),
		// dwarfed by the vocabulary projection below).
		cb := arena.Batch(na, 2*hid)
		for s, rs := range active {
			es := states[rs.r]
			hrow := hn.Row(s)
			scores := arena.Vec(len(es))
			for i, eh := range es {
				scores[i] = neural.Dot(hrow, eh)
			}
			alpha := neural.Softmax(scores, arena.Vec(len(es)))
			alphas[s] = alpha
			ctx := arena.Vec(hid)
			for i, a := range alpha {
				neural.Axpy(a, es[i], ctx)
			}
			crow := cb.Row(s)
			copy(crow[:hid], hrow)
			copy(crow[hid:], ctx)
		}

		// The batched hot path: wc, the vocabulary projection wo (the
		// dominant GEMM), its softmax, and the p_gen head.
		pre := m.wc.ForwardBatch(cb, arena)
		comb := arena.Batch(na, hid)
		neural.TanhBatch(pre, comb)
		logits := m.wo.ForwardBatch(comb, arena)
		pv := neural.SoftmaxRows(logits, arena.Batch(na, logits.N))
		gb := m.wg.ForwardBatch(comb, arena)

		next := active[:0]
		for s, rs := range active {
			pgen := 1.0 / (1.0 + math.Exp(-gb.Row(s)[0]))
			cp := plans[rs.r]
			mix := arena.Vec(cp.size())
			cp.mixture(pv.Row(s), pgen, alphas[s], mix)
			c := pickToken(mix)
			if c == tokens.EosID {
				continue // row finished; it leaves the batch
			}
			out[rs.r] = append(out[rs.r], cp.token(m.vocab, c))
			copy(rs.h, hn.Row(s))
			rs.prev = cp.nextID(c)
			next = append(next, rs)
		}
		active = next
		arena.Reset()
	}
	return out
}
