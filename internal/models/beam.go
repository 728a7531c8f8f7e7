package models

import (
	"math"
	"sort"

	"repro/internal/tokens"
)

// TranslateBeam decodes with beam search of the given width, returning
// up to width candidate token sequences ordered by length-normalized
// log-likelihood (best first). Width 1 degenerates to greedy decoding.
// The runtime's execution-guided mode uses the alternatives to recover
// from candidates that fail to execute.
func (m *Seq2Seq) TranslateBeam(nl, schemaToks []string, width int) [][]string {
	if m.vocab == nil {
		return nil
	}
	if width < 1 {
		width = 1
	}
	input := InputSequence(nl, schemaToks)
	es := m.encode(input)
	cp := newCopyPlan(m.vocab, input, es.ids)
	mix := make([]float64, cp.size())

	type beam struct {
		toks   []string
		logp   float64
		h      []float64
		prevID int
		done   bool
	}
	beams := []beam{{h: es.final, prevID: tokens.BosID}}
	var finished []beam

	for step := 0; step < m.cfg.MaxOutLen && len(beams) > 0; step++ {
		var expanded []beam
		for _, bm := range beams {
			st, hNew := m.forwardStep(bm.prevID, bm.h, es)
			clear(mix)
			cp.mixture(st.pv, st.pgen, st.alpha, mix)
			for _, cand := range m.topTokens(cp, mix, width+1) {
				nb := beam{
					logp:   bm.logp + math.Log(math.Max(cand.p, 1e-12)),
					h:      hNew,
					prevID: cp.nextID(cand.c),
				}
				if cand.tok == tokens.EosToken {
					nb.toks = bm.toks
					nb.done = true
					finished = append(finished, nb)
					continue
				}
				nb.toks = append(append([]string{}, bm.toks...), cand.tok)
				expanded = append(expanded, nb)
			}
		}
		sort.SliceStable(expanded, func(i, j int) bool { return expanded[i].logp > expanded[j].logp })
		if len(expanded) > width {
			expanded = expanded[:width]
		}
		beams = expanded
	}
	// Unfinished beams still count (length cap reached).
	finished = append(finished, beams...)
	sort.SliceStable(finished, func(i, j int) bool {
		return normLogp(finished[i].logp, len(finished[i].toks)) > normLogp(finished[j].logp, len(finished[j].toks))
	})
	var out [][]string
	seen := map[string]bool{}
	for _, bm := range finished {
		key := joinKey(bm.toks)
		if seen[key] || len(bm.toks) == 0 {
			continue
		}
		seen[key] = true
		out = append(out, bm.toks)
		if len(out) >= width {
			break
		}
	}
	return out
}

// TranslateK implements the execution-guided alternatives contract.
func (m *Seq2Seq) TranslateK(nl, schemaToks []string, k int) [][]string {
	return m.TranslateBeam(nl, schemaToks, k)
}

func normLogp(logp float64, length int) float64 {
	if length == 0 {
		return math.Inf(-1)
	}
	return logp / float64(length)
}

func joinKey(toks []string) string {
	out := ""
	for _, t := range toks {
		out += t + "\x1f"
	}
	return out
}

// scored token candidate: the token, its copy-plan candidate index,
// and its mixture probability.
type tokCand struct {
	tok string
	c   int
	p   float64
}

// topTokens returns the k most probable next tokens of a mixture
// vector over cp's candidates (see copyPlan.mixture), excluding
// structural specials other than EOS. Ties keep scan order: vocabulary
// ids ascending, then out-of-vocabulary tokens.
func (m *Seq2Seq) topTokens(cp *copyPlan, mix []float64, k int) []tokCand {
	cands := make([]tokCand, 0, len(mix))
	for c, p := range mix {
		if !skipCandidate(c) {
			cands = append(cands, tokCand{c: c, p: p})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].p > cands[j].p })
	if len(cands) > k {
		cands = cands[:k]
	}
	for i := range cands {
		cands[i].tok = cp.token(m.vocab, cands[i].c)
	}
	return cands
}

// TranslateK for the sketch model: the top-k sketches by classifier
// score, each filled with its best slot candidates.
func (m *Sketch) TranslateK(nl, schemaToks []string, k int) [][]string {
	if m.vocab == nil || len(m.sketches) == 0 {
		return nil
	}
	ss := newSchemaSet(schemaToks)
	ec := m.encodeNL(nl)
	enc := ec.final
	nlc := newNLContext(nl)

	logits := m.clsW.Forward(enc)
	order := argsortDesc(logits)
	if k > len(order) {
		k = len(order)
	}
	var out [][]string
	for _, skID := range order[:k] {
		out = append(out, m.fillSketch(m.sketches[skID], ss, enc, nlc))
	}
	return out
}

// fillSketch fills one sketch's slots (shared by Translate and
// TranslateK).
func (m *Sketch) fillSketch(sk sketch, ss *schemaSet, enc []float64, nlc *nlContext) []string {
	out := make([]string, 0, len(sk.tokens))
	si := 0
	usedInSelect := map[string]bool{}
	rolePos := map[int]int{}
	for _, t := range sk.tokens {
		if t != slotMarker {
			out = append(out, t)
			continue
		}
		kind := sk.kinds[si]
		cl := sk.clauses[si]
		si++
		role := int(cl)*int(numKinds) + int(kind)
		kIdx := scorerIndex(cl, kind, rolePos[role])
		rolePos[role]++
		cands := ss.byKind[kind]
		if len(cands) == 0 {
			cands = ss.toks
		}
		if len(cands) == 0 {
			out = append(out, "<unk>")
			continue
		}
		scores, _, _, _ := m.slotScores(kIdx, enc, cands, nlc)
		if cl == clauseSelect {
			for i, c := range cands {
				if usedInSelect[c] {
					scores[i] -= 1.0
				}
			}
		}
		best := cands[argmaxIdx(scores)]
		if cl == clauseSelect {
			usedInSelect[best] = true
		}
		out = append(out, best)
	}
	return out
}

func argsortDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return v[idx[i]] > v[idx[j]] })
	return idx
}

func argmaxIdx(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
