package models

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/neural"
	"repro/internal/tokens"
)

// Seq2SeqConfig sizes and schedules the seq2seq translator. The
// defaults are deliberately small: the repository targets single-core
// CPU training (see DESIGN.md).
type Seq2SeqConfig struct {
	EmbDim    int     // embedding dimension
	HidDim    int     // GRU hidden dimension
	LR        float64 // Adam learning rate
	Epochs    int     // training epochs
	SampleCap int     // max examples used per epoch (0 = all)
	MaxOutLen int     // decoding length cap
	GradClip  float64 // global gradient-norm clip
	MinCount  int     // vocabulary min token count
	// BatchSize selects the optimizer-step granularity: examples per
	// minibatch whose gradients are accumulated before one Adam step.
	// 0 or 1 reproduces the original per-example SGD trajectory
	// bit-for-bit; larger batches change the trajectory (fewer, larger
	// steps) but are independent of Workers.
	BatchSize int
	// Workers bounds the goroutines that backprop a minibatch in
	// parallel (0 = runtime.NumCPU). Results are identical for every
	// worker count; see trainBatches.
	Workers int
	Seed    int64
}

// DefaultSeq2SeqConfig returns the standard small configuration.
func DefaultSeq2SeqConfig() Seq2SeqConfig {
	return Seq2SeqConfig{
		EmbDim:    48,
		HidDim:    96,
		LR:        0.002,
		Epochs:    6,
		SampleCap: 4000,
		MaxOutLen: 48,
		GradClip:  5,
		MinCount:  1,
		BatchSize: 1,
		Seed:      1,
	}
}

// Seq2Seq is an attention + copy (pointer-generator) encoder-decoder:
// a GRU encoder over [NL tokens, <sep>, schema tokens], a GRU decoder
// with Luong dot attention over encoder states, and an output mixture
// of a vocabulary softmax and a copy distribution over input
// positions. The copy path lets the model emit schema tokens of
// databases never seen in training — the mechanism that makes the
// translator usable in the Spider-style cross-schema evaluation.
//
// Weights and gate tables. Greedy decoding reads each GRU's input-gate
// products from a per-token table (neural.GateTable) instead of
// multiplying the embedding row every step. The tables are derived
// from the weights, so every method that finalizes weights —
// TrainContext (on every return, including cancellation and failed
// resumes), LoadSeq2Seq and LoadInto — rebuilds them before it
// returns. Between those calls weights and tables are read-only, which
// is what lets any number of concurrent decodes share them with no
// lock; a caller must not run a decode concurrently with one of those
// calls on the same model.
type Seq2Seq struct {
	cfg    Seq2SeqConfig
	vocab  *tokens.Vocab
	ps     *neural.ParamSet
	emb    *neural.Embedding
	enc    *neural.GRU
	dec    *neural.GRU
	wc     *neural.Linear // comb = tanh(Wc [h_dec; ctx])
	wo     *neural.Linear // vocabulary logits
	wg     *neural.Linear // p_gen scalar
	encTab *neural.GateTable
	decTab *neural.GateTable
	rng    *rand.Rand
}

// NewSeq2Seq returns an untrained model; parameters are allocated at
// Train time once the vocabulary is known.
func NewSeq2Seq(cfg Seq2SeqConfig) *Seq2Seq {
	return &Seq2Seq{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Translator.
func (m *Seq2Seq) Name() string { return "seq2seq" }

// Vocab exposes the trained vocabulary (nil before Train).
func (m *Seq2Seq) Vocab() *tokens.Vocab { return m.vocab }

// NumParams returns the number of trainable parameters (0 before
// Train).
func (m *Seq2Seq) NumParams() int {
	if m.ps == nil {
		return 0
	}
	return m.ps.NumParams()
}

func (m *Seq2Seq) build(vocabSize int) {
	m.ps = &neural.ParamSet{}
	m.emb = neural.NewEmbedding(m.ps, "emb", vocabSize, m.cfg.EmbDim, m.rng)
	applySynonymClusters(m.emb, m.vocab, m.rng)
	m.enc = neural.NewGRU(m.ps, "enc", m.cfg.EmbDim, m.cfg.HidDim, m.rng)
	m.dec = neural.NewGRU(m.ps, "dec", m.cfg.EmbDim, m.cfg.HidDim, m.rng)
	m.wc = neural.NewLinear(m.ps, "wc", 2*m.cfg.HidDim, m.cfg.HidDim, m.rng)
	m.wo = neural.NewLinear(m.ps, "wo", m.cfg.HidDim, vocabSize, m.rng)
	m.wg = neural.NewLinear(m.ps, "wg", m.cfg.HidDim, 1, m.rng)
}

// Train implements Translator: teacher-forced training with minibatch
// gradient accumulation. BatchSize 1 (the default) takes one Adam step
// per example, exactly the original sequential SGD trajectory; larger
// batches accumulate per-example gradients — computed concurrently by
// up to Workers goroutines into shadow gradient lanes — before each
// step. Results are bit-identical for every worker count.
func (m *Seq2Seq) Train(examples []Example) {
	// Background is never done and no checkpointing is configured, so
	// the error is always nil.
	_ = m.TrainContext(context.Background(), examples, TrainOptions{})
}

// TrainContext is Train with cooperative cancellation and optional
// checkpoint/resume. Cancellation is observed between optimizer steps
// (and between the per-example backprops of a batch); when a
// checkpoint destination is configured, a final snapshot is written
// before the context's error is returned, so an interrupted run never
// loses completed steps. Resuming from a checkpoint written over the
// same examples and configuration continues the exact weight
// trajectory of the uninterrupted run (see trainSchedule).
func (m *Seq2Seq) TrainContext(ctx context.Context, examples []Example, opts TrainOptions) error {
	if len(examples) == 0 {
		return nil
	}
	m.vocab = BuildVocabs(examples, m.cfg.MinCount)
	// build draws the same RNG sequence on fresh and resumed runs —
	// that replay, not serialized RNG internals, is what puts the
	// generator back in position after a resume.
	m.build(m.vocab.Size())
	defer m.refreshTables()
	opt := neural.NewAdam(m.ps, m.cfg.LR)

	sched := &trainSchedule{
		epochs:    m.cfg.Epochs,
		sampleCap: m.cfg.SampleCap,
		batchSize: m.cfg.BatchSize,
		workers:   m.cfg.Workers,
		gradClip:  m.cfg.GradClip,
		rng:       m.rng,
		main:      m.ps,
		opt:       opt,
	}
	bs := batchSizeOf(m.cfg.BatchSize)
	if bs > 1 {
		lanes := make([]*Seq2Seq, bs)
		sched.lanes = make([]*neural.ParamSet, bs)
		for i := range lanes {
			lanes[i] = m.workerClone()
			sched.lanes[i] = lanes[i].ps
		}
		sched.accum = func(lane, exIdx int) { lanes[lane].backprop(examples[exIdx]) }
	} else {
		sched.accum = func(_, exIdx int) { m.backprop(examples[exIdx]) }
	}

	if r := opts.Resume; r != nil {
		if err := m.restoreCheckpoint(r); err != nil {
			return err
		}
		if err := opt.Restore(r.Adam); err != nil {
			return err
		}
	}
	scheduleCheckpointing(sched, opts, func(epoch, step int) (*Checkpoint, error) {
		return snapshot(m.Name(), epoch, step, m.SaveFull, opt)
	})
	return sched.run(ctx, len(examples))
}

// restoreCheckpoint copies a checkpoint's weights into the
// freshly-built parameter set, validating that the checkpoint matches
// this model and vocabulary.
func (m *Seq2Seq) restoreCheckpoint(ck *Checkpoint) error {
	if err := resumeKindErr(ck, m.Name()); err != nil {
		return err
	}
	var in savedSeq2Seq
	if err := gob.NewDecoder(bytes.NewReader(ck.Model)).Decode(&in); err != nil {
		return fmt.Errorf("models: resume: decode checkpoint model: %w", err)
	}
	if len(in.Vocab) != m.vocab.Size() {
		return fmt.Errorf("models: resume: vocabulary size %d does not match checkpoint's %d (resume requires the original examples and config)",
			m.vocab.Size(), len(in.Vocab))
	}
	return restoreParams(m.ps.Mats(), m.ps.Names(), in.Mats)
}

// workerClone returns a model that shares this model's weights and
// vocabulary but backprops into its own shadow gradient buffers — the
// per-lane worker of the minibatch loop. The clone's modules are
// registered in the same order as build, keeping its ParamSet
// merge-compatible with the original.
func (m *Seq2Seq) workerClone() *Seq2Seq {
	c := &Seq2Seq{cfg: m.cfg, vocab: m.vocab, ps: &neural.ParamSet{}}
	c.emb = m.emb.Shadow(c.ps, "emb")
	c.enc = m.enc.Shadow(c.ps, "enc")
	c.dec = m.dec.Shadow(c.ps, "dec")
	c.wc = m.wc.Shadow(c.ps, "wc")
	c.wo = m.wo.Shadow(c.ps, "wo")
	c.wg = m.wg.Shadow(c.ps, "wg")
	return c
}

// encState holds the encoder pass over one input.
type encState struct {
	ids    []int
	toks   []string
	states [][]float64
	caches []*neural.GRUCache
	final  []float64
}

func (m *Seq2Seq) encode(input []string) *encState {
	es := &encState{toks: input, ids: m.vocab.Encode(input)}
	h := neural.NewVec(m.cfg.HidDim)
	for _, id := range es.ids {
		x := m.emb.Lookup(id)
		hn, cache := m.enc.Forward(x, h)
		es.states = append(es.states, hn)
		es.caches = append(es.caches, cache)
		h = hn
	}
	es.final = h
	return es
}

// decStep holds one decoder step's intermediates for backprop.
type decStep struct {
	prevID   int
	cache    *neural.GRUCache
	hDec     []float64
	alpha    []float64
	ctx      []float64
	concat   []float64
	combPre  []float64 // wc output before tanh? stored as comb (post-tanh)
	comb     []float64
	logits   []float64
	pv       []float64
	pgen     float64
	target   string
	targetID int
	prob     float64
}

// forwardStep runs one decoder step.
func (m *Seq2Seq) forwardStep(prevID int, h []float64, es *encState) (*decStep, []float64) {
	st := &decStep{prevID: prevID}
	x := m.emb.Lookup(prevID)
	hNew, cache := m.dec.Forward(x, h)
	st.cache = cache
	st.hDec = hNew

	// Luong dot attention over encoder states.
	T := len(es.states)
	scores := neural.NewVec(T)
	for i, eh := range es.states {
		scores[i] = neural.Dot(hNew, eh)
	}
	st.alpha = neural.Softmax(scores, neural.NewVec(T))
	st.ctx = neural.NewVec(m.cfg.HidDim)
	for i, a := range st.alpha {
		neural.Axpy(a, es.states[i], st.ctx)
	}

	st.concat = make([]float64, 0, 2*m.cfg.HidDim)
	st.concat = append(st.concat, hNew...)
	st.concat = append(st.concat, st.ctx...)
	pre := m.wc.Forward(st.concat)
	st.comb = neural.NewVec(m.cfg.HidDim)
	neural.Tanh(pre, st.comb)

	st.logits = m.wo.Forward(st.comb)
	st.pv = neural.Softmax(st.logits, neural.NewVec(len(st.logits)))
	g := m.wg.Forward(st.comb)[0]
	st.pgen = 1.0 / (1.0 + math.Exp(-g))
	return st, hNew
}

// prob computes the mixture probability of emitting token t.
func (st *decStep) probOf(t string, vocab *tokens.Vocab, es *encState) (p, copySum float64, inVocab bool) {
	inVocab = vocab.Has(t)
	if inVocab {
		p = st.pgen * st.pv[vocab.ID(t)]
	}
	for i, tok := range es.toks {
		if tok == t {
			copySum += st.alpha[i]
		}
	}
	p += (1 - st.pgen) * copySum
	return p, copySum, inVocab
}

// rollout runs the teacher-forced forward pass and returns the
// encoder state, the decoder steps, and the summed negative
// log-likelihood.
func (m *Seq2Seq) rollout(ex Example) (*encState, []*decStep, float64) {
	input := InputSequence(ex.NL, ex.Schema)
	es := m.encode(input)

	target := append(append([]string{}, ex.SQL...), tokens.EosToken)
	h := es.final
	prevID := tokens.BosID
	steps := make([]*decStep, 0, len(target))
	loss := 0.0
	for _, t := range target {
		st, hNew := m.forwardStep(prevID, h, es)
		st.target = t
		st.targetID = m.vocab.ID(t)
		p, _, _ := st.probOf(t, m.vocab, es)
		st.prob = p
		pc := p
		if pc < 1e-12 {
			pc = 1e-12
		}
		loss += -math.Log(pc)
		steps = append(steps, st)
		h = hNew
		prevID = st.targetID // teacher forcing (OOV -> UNK embedding)
	}
	return es, steps, loss
}

// Loss returns the teacher-forced NLL of one example without touching
// gradients (used by gradient checks and validation).
func (m *Seq2Seq) Loss(ex Example) float64 {
	_, _, loss := m.rollout(ex)
	return loss
}

// step runs one training example: forward, loss, backward, update.
func (m *Seq2Seq) step(ex Example, opt *neural.Adam) {
	m.backprop(ex)
	m.ps.ClipGrad(m.cfg.GradClip)
	opt.Step()
}

// backprop accumulates gradients for one example and returns its loss.
func (m *Seq2Seq) backprop(ex Example) float64 {
	es, steps, loss := m.rollout(ex)

	// Backward.
	hid := m.cfg.HidDim
	dEnc := make([][]float64, len(es.states))
	for i := range dEnc {
		dEnc[i] = neural.NewVec(hid)
	}
	dh := neural.NewVec(hid) // recurrent grad into decoder step t
	for k := len(steps) - 1; k >= 0; k-- {
		st := steps[k]
		p := st.prob
		if p < 1e-12 {
			p = 1e-12
		}
		dP := -1.0 / p

		inVocab := m.vocab.Has(st.target)
		copySum := 0.0
		for i, tok := range es.toks {
			if tok == st.target {
				copySum += st.alpha[i]
			}
		}
		// d p_gen and the two mixture branches.
		var dPvT float64
		if inVocab {
			dPvT = dP * st.pgen
		}
		dpgen := 0.0
		if inVocab {
			dpgen += dP * st.pv[st.targetID]
		}
		dpgen -= dP * copySum

		dAlpha := neural.NewVec(len(st.alpha))
		for i, tok := range es.toks {
			if tok == st.target {
				dAlpha[i] += dP * (1 - st.pgen)
			}
		}

		dComb := neural.NewVec(hid)

		// Vocabulary softmax backward (single nonzero dPv row).
		if dPvT != 0 {
			pvT := st.pv[st.targetID]
			dLogits := neural.NewVec(len(st.pv))
			for j := range dLogits {
				d := -pvT * st.pv[j]
				if j == st.targetID {
					d += pvT
				}
				dLogits[j] = dPvT * d
			}
			dc := m.wo.Backward(st.comb, dLogits)
			for i := range dComb {
				dComb[i] += dc[i]
			}
		}

		// p_gen sigmoid backward.
		if dpgen != 0 {
			dg := dpgen * st.pgen * (1 - st.pgen)
			dc := m.wg.Backward(st.comb, []float64{dg})
			for i := range dComb {
				dComb[i] += dc[i]
			}
		}

		// comb = tanh(wc [h;ctx]) backward.
		dPre := neural.NewVec(hid)
		for i := range dPre {
			dPre[i] = dComb[i] * (1 - st.comb[i]*st.comb[i])
		}
		dConcat := m.wc.Backward(st.concat, dPre)
		dHdec := neural.NewVec(hid)
		copy(dHdec, dConcat[:hid])
		dCtx := dConcat[hid:]

		// ctx = Σ α_i enc_i backward.
		for i, a := range st.alpha {
			neural.Axpy(a, dCtx, dEnc[i])
			dAlpha[i] += neural.Dot(dCtx, es.states[i])
		}
		// Attention softmax backward.
		sumAD := 0.0
		for i, a := range st.alpha {
			sumAD += a * dAlpha[i]
		}
		for i, a := range st.alpha {
			ds := a * (dAlpha[i] - sumAD)
			if ds == 0 {
				continue
			}
			neural.Axpy(ds, es.states[i], dHdec)
			neural.Axpy(ds, st.hDec, dEnc[i])
		}

		// Recurrent grad from the next step.
		for i := range dHdec {
			dHdec[i] += dh[i]
		}
		dx, dhPrev := m.dec.Backward(st.cache, dHdec)
		m.emb.AccumGrad(st.prevID, dx)
		dh = dhPrev
	}

	// Encoder backward: decoder initial state was the encoder final
	// state, so dh chains straight in.
	for i := len(es.caches) - 1; i >= 0; i-- {
		for j := range dh {
			dh[j] += dEnc[i][j]
		}
		dx, dhPrev := m.enc.Backward(es.caches[i], dh)
		m.emb.AccumGrad(es.ids[i], dx)
		dh = dhPrev
	}
	return loss
}

// Translate implements Translator: greedy decoding with the
// generate/copy mixture. It is TranslateBatch at k=1 — the one greedy
// path, an inference-only forward pass that keeps no backprop state.
func (m *Seq2Seq) Translate(nl, schemaToks []string) []string {
	return m.TranslateBatch([][]string{nl}, schemaToks)[0]
}

// copyPlan resolves one input sequence against the vocabulary once per
// request, so every decode step mixes the copy distribution into the
// vocabulary softmax with slice arithmetic rather than string maps. A
// candidate index c names an output token: c < V is vocabulary id c,
// c >= V the (c-V)-th distinct out-of-vocabulary input token in sorted
// order.
type copyPlan struct {
	v    int      // vocabulary size
	slot []int    // input position -> candidate index
	oov  []string // distinct out-of-vocabulary input tokens, sorted
}

// newCopyPlan builds the plan of input, whose vocabulary encoding is
// ids.
func newCopyPlan(vocab *tokens.Vocab, input []string, ids []int) *copyPlan {
	cp := &copyPlan{v: vocab.Size(), slot: slices.Clone(ids)}
	oov := func(i int) bool { return ids[i] == tokens.UnkID && input[i] != tokens.UnkToken }
	for i := range ids {
		if oov(i) {
			cp.oov = append(cp.oov, input[i])
		}
	}
	sort.Strings(cp.oov)
	cp.oov = slices.Compact(cp.oov)
	for i := range ids {
		if oov(i) {
			cp.slot[i] = cp.v + sort.SearchStrings(cp.oov, input[i])
		}
	}
	return cp
}

// size is the number of candidates: the vocabulary, then the
// out-of-vocabulary input tokens.
func (cp *copyPlan) size() int { return cp.v + len(cp.oov) }

// mixture writes the output distribution over every candidate into the
// zeroed dst of length size(): pgen·pv[id] plus (1-pgen)·copy mass for
// vocabulary ids, (1-pgen)·copy mass for out-of-vocabulary tokens. Copy
// mass sums alpha in input-position order. An id absent from the input
// adds (1-pgen)·0 = +0, which leaves p bit-for-bit unchanged: pgen and
// pv lie in [0, 1], so p is never -0, and NaN stays NaN.
func (cp *copyPlan) mixture(pv []float64, pgen float64, alpha, dst []float64) {
	for i, c := range cp.slot {
		dst[c] += alpha[i]
	}
	for id, pvID := range pv {
		p := pgen * pvID
		p += (1 - pgen) * dst[id]
		dst[id] = p
	}
	for c := cp.v; c < len(dst); c++ {
		dst[c] = (1 - pgen) * dst[c]
	}
}

// token returns the output token of candidate c.
func (cp *copyPlan) token(vocab *tokens.Vocab, c int) string {
	if c < cp.v {
		return vocab.Word(c)
	}
	return cp.oov[c-cp.v]
}

// nextID is the decoder input id after emitting candidate c: its
// vocabulary id, or <unk> for a copied out-of-vocabulary token.
func (cp *copyPlan) nextID(c int) int {
	if c < cp.v {
		return c
	}
	return tokens.UnkID
}

// skipCandidate reports whether candidate c is a structural special
// decoding never emits: <pad>, <bos>, <unk> or <sep>. Every vocabulary
// has at least the five specials, so no out-of-vocabulary index
// collides with these ids.
func skipCandidate(c int) bool {
	return c == tokens.PadID || c == tokens.BosID || c == tokens.UnkID || c == tokens.SepID
}

// pickToken is the greedy decoding argmax over a mixture vector: the
// candidates in scan order (vocabulary ids ascending, then the
// out-of-vocabulary tokens), the first strict maximum winning, <eos>
// when no candidate beats -Inf.
func pickToken(mix []float64) int {
	best, bestP := tokens.EosID, math.Inf(-1)
	for c, p := range mix {
		if skipCandidate(c) {
			continue
		}
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

// Save writes the model weights (vocabulary must be rebuilt by
// retraining or supplied externally; cmd/dbpal-train persists both).
func (m *Seq2Seq) Save(w io.Writer) error { return m.ps.Save(w) }

// LoadInto restores weights into a model already built with the same
// vocabulary and configuration, and rebuilds the gate tables from
// them.
func (m *Seq2Seq) LoadInto(r io.Reader) error {
	err := m.ps.Load(r)
	m.refreshTables()
	return err
}

// refreshTables rebuilds both GRUs' gate tables from the current
// weights. Every method that finalizes weights calls it before
// returning; see the contract on Seq2Seq.
func (m *Seq2Seq) refreshTables() {
	m.encTab = m.enc.BuildGateTable(m.emb)
	m.decTab = m.dec.BuildGateTable(m.emb)
}
