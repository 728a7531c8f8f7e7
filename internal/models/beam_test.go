package models

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/tokens"
)

func trainedSeq2Seq(t *testing.T) *Seq2Seq {
	t.Helper()
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 150
	cfg.EmbDim = 24
	cfg.HidDim = 48
	m := NewSeq2Seq(cfg)
	m.Train(trainingExamples())
	return m
}

func TestBeamWidthOneMatchesGreedy(t *testing.T) {
	m := trainedSeq2Seq(t)
	for _, ex := range trainingExamples() {
		greedy := strings.Join(m.Translate(ex.NL, ex.Schema), " ")
		beams := m.TranslateBeam(ex.NL, ex.Schema, 1)
		if len(beams) == 0 {
			t.Fatal("beam search returned nothing")
		}
		beam := strings.Join(beams[0], " ")
		if greedy != beam {
			t.Fatalf("beam=1 differs from greedy:\n%s\n%s", greedy, beam)
		}
	}
}

func TestBeamSearchTopCandidateCorrect(t *testing.T) {
	m := trainedSeq2Seq(t)
	for _, ex := range trainingExamples() {
		beams := m.TranslateBeam(ex.NL, ex.Schema, 3)
		if len(beams) == 0 {
			t.Fatal("no beams")
		}
		if got := strings.Join(beams[0], " "); got != strings.Join(ex.SQL, " ") {
			t.Fatalf("top beam wrong: %q", got)
		}
	}
}

func TestBeamSearchDistinctCandidates(t *testing.T) {
	m := trainedSeq2Seq(t)
	ex := trainingExamples()[0]
	beams := m.TranslateBeam(ex.NL, ex.Schema, 4)
	seen := map[string]bool{}
	for _, b := range beams {
		k := strings.Join(b, " ")
		if seen[k] {
			t.Fatalf("duplicate beam %q", k)
		}
		seen[k] = true
	}
	if len(beams) < 2 {
		t.Fatalf("expected multiple distinct candidates, got %d", len(beams))
	}
}

func TestSeq2SeqTranslateKContract(t *testing.T) {
	m := trainedSeq2Seq(t)
	ex := trainingExamples()[0]
	ks := m.TranslateK(ex.NL, ex.Schema, 3)
	if len(ks) == 0 || len(ks) > 3 {
		t.Fatalf("TranslateK returned %d candidates", len(ks))
	}
}

func TestSketchTranslateK(t *testing.T) {
	cfg := DefaultSketchConfig()
	cfg.Epochs = 60
	m := NewSketch(cfg)
	m.Train(trainingExamples())
	ex := trainingExamples()[0]
	ks := m.TranslateK(ex.NL, ex.Schema, 3)
	if len(ks) != 3 {
		t.Fatalf("TranslateK returned %d candidates (inventory has %d sketches)", len(ks), m.NumSketches())
	}
	// The top candidate matches plain Translate.
	if strings.Join(ks[0], " ") != strings.Join(m.Translate(ex.NL, ex.Schema), " ") {
		t.Fatal("TranslateK[0] differs from Translate")
	}
	// Candidates come from distinct sketches.
	if strings.Join(ks[0], " ") == strings.Join(ks[1], " ") {
		t.Fatal("top two sketch candidates identical")
	}
}

func TestUntrainedTranslateK(t *testing.T) {
	if out := NewSeq2Seq(DefaultSeq2SeqConfig()).TranslateK([]string{"x"}, []string{"t"}, 3); out != nil {
		t.Fatal("untrained seq2seq TranslateK should be nil")
	}
	if out := NewSketch(DefaultSketchConfig()).TranslateK([]string{"x"}, []string{"t"}, 3); out != nil {
		t.Fatal("untrained sketch TranslateK should be nil")
	}
}

// topTokensMap is the map-based candidate ranking topTokens used before
// the copy plan, kept as the oracle of the beam golden test.
func (m *Seq2Seq) topTokensMap(st *decStep, es *encState, k int) []tokCand {
	copyMass := map[string]float64{}
	for i, tok := range es.toks {
		copyMass[tok] += st.alpha[i]
	}
	var cands []tokCand
	for id, pv := range st.pv {
		if id == tokens.PadID || id == tokens.BosID || id == tokens.UnkID {
			continue
		}
		w := m.vocab.Word(id)
		if w == tokens.SepToken {
			continue
		}
		p := st.pgen * pv
		if cm, ok := copyMass[w]; ok {
			p += (1 - st.pgen) * cm
		}
		cands = append(cands, tokCand{tok: w, p: p})
	}
	for _, tok := range sortedKeys(copyMass) {
		if m.vocab.Has(tok) || tok == tokens.SepToken {
			continue
		}
		cands = append(cands, tokCand{tok: tok, p: (1 - st.pgen) * copyMass[tok]})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].p > cands[j].p })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// beamOracle is TranslateBeam as it was before the copy plan: the same
// search, ranking candidates with topTokensMap.
func beamOracle(m *Seq2Seq, nl, schemaToks []string, width int) [][]string {
	es := m.encode(InputSequence(nl, schemaToks))
	type beam struct {
		toks   []string
		logp   float64
		h      []float64
		prevID int
	}
	beams := []beam{{h: es.final, prevID: tokens.BosID}}
	var finished []beam
	for step := 0; step < m.cfg.MaxOutLen && len(beams) > 0; step++ {
		var expanded []beam
		for _, bm := range beams {
			st, hNew := m.forwardStep(bm.prevID, bm.h, es)
			for _, cand := range m.topTokensMap(st, es, width+1) {
				nb := beam{logp: bm.logp + math.Log(math.Max(cand.p, 1e-12)), h: hNew, prevID: m.vocab.ID(cand.tok)}
				if cand.tok == tokens.EosToken {
					nb.toks = bm.toks
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

// TestTranslateKBeamGolden: TranslateK ranks candidates through the
// copy plan and must return exactly what the map-based beam search
// returned, at widths 1–4, on the training questions, the batch
// questions and an unseen schema, for the trained fixture and for a
// barely trained model whose beams copy freely.
func TestTranslateKBeamGolden(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 1
	cfg.EmbDim = 24
	cfg.HidDim = 48
	rough := NewSeq2Seq(cfg)
	rough.Train(trainingExamples())
	st := trainingExamples()[0].Schema
	var nls [][]string
	for _, ex := range trainingExamples() {
		nls = append(nls, ex.NL)
	}
	nls = append(nls, batchQuestions()...)
	ust, unl := unseenSchema()
	for name, m := range map[string]*Seq2Seq{"trained": trainedSeq2Seq(t), "rough": rough} {
		for width := 1; width <= 4; width++ {
			for _, nl := range nls {
				if got, want := m.TranslateK(nl, st, width), beamOracle(m, nl, st, width); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: TranslateK(%v, %d) = %v, map oracle %v", name, nl, width, got, want)
				}
			}
			if got, want := m.TranslateK(unl, ust, width), beamOracle(m, unl, ust, width); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: unseen schema width %d: TranslateK = %v, map oracle %v", name, width, got, want)
			}
		}
	}
}
