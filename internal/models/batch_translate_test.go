package models

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tokens"
)

// batchQuestions mixes trained phrasings, unseen phrasings, and
// different lengths, so the batch exercises ragged encoder lengths,
// rows reaching EOS at different steps, and OOV copy tokens.
func batchQuestions() [][]string {
	return [][]string{
		strings.Fields("show the name of patient with age @PATIENTS.AGE"),
		strings.Fields("how many patient be there"),
		strings.Fields("show the diagnosis of patient with age @PATIENTS.AGE"),
		strings.Fields("what be the average age of patient"),
		strings.Fields("list patient with diagnosis @PATIENTS.DIAGNOSIS"),
		strings.Fields("name of the oldest patient please"),
		strings.Fields("age"),
		strings.Fields("show name and diagnosis of every patient with age @PATIENTS.AGE and more words"),
	}
}

// scalarGreedy is the scalar greedy decoder Translate used to be,
// kept as the oracle of the golden tests: the training forward pass
// (encode/forwardStep, GRU caches and all) one vector at a time, then
// the argmax at every step. Translate now runs the arena/StepBatch
// path at k=1 and must reproduce this loop token for token.
func scalarGreedy(m *Seq2Seq, nl, schemaToks []string) []string {
	if m.vocab == nil {
		return nil
	}
	es := m.encode(InputSequence(nl, schemaToks))
	h := es.final
	prevID := tokens.BosID
	var out []string
	for step := 0; step < m.cfg.MaxOutLen; step++ {
		st, hNew := m.forwardStep(prevID, h, es)
		tok := m.pickTokenMap(st.pv, st.pgen, st.alpha, es.toks)
		if tok == tokens.EosToken {
			break
		}
		out = append(out, tok)
		h = hNew
		prevID = m.vocab.ID(tok)
	}
	return out
}

// pickTokenMap is the map-based greedy argmax the copy plan replaced,
// kept so scalarGreedy stays an oracle independent of the production
// mixture: pv is the vocabulary softmax, pgen the generate-vs-copy
// mixture weight, alpha the attention over inputToks.
func (m *Seq2Seq) pickTokenMap(pv []float64, pgen float64, alpha []float64, inputToks []string) string {
	// Copy mass per distinct input token.
	copyMass := map[string]float64{}
	for i, tok := range inputToks {
		copyMass[tok] += alpha[i]
	}
	bestTok := tokens.EosToken
	bestP := math.Inf(-1)
	for id, pvID := range pv {
		p := pgen * pvID
		w := m.vocab.Word(id)
		if cm, ok := copyMass[w]; ok {
			p += (1 - pgen) * cm
		}
		if id == tokens.PadID || id == tokens.BosID || id == tokens.UnkID || w == tokens.SepToken {
			continue
		}
		if p > bestP {
			bestP, bestTok = p, w
		}
	}
	for _, tok := range sortedKeys(copyMass) {
		if m.vocab.Has(tok) || tok == tokens.SepToken {
			continue // already counted through the vocabulary loop
		}
		p := (1 - pgen) * copyMass[tok]
		if p > bestP {
			bestP, bestTok = p, tok
		}
	}
	return bestTok
}

// unseenSchema is a database the fixture model never trained on: its
// tokens reach the output only through the copy path.
func unseenSchema() ([]string, []string) {
	return []string{"ships", "label", "tonnage", "ships.label", "ships.tonnage", "@SHIPS.TONNAGE", "@JOIN"},
		strings.Fields("show the label of ship with tonnage @SHIPS.TONNAGE")
}

// TestTranslateScalarGolden: Translate is token-identical to the
// scalar greedy oracle on every test corpus — the training questions,
// the batch questions, and an unseen schema — for the trained fixture
// and for a barely trained model whose decodes run long and copy
// freely.
func TestTranslateScalarGolden(t *testing.T) {
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
		for _, nl := range nls {
			if got, want := m.Translate(nl, st), scalarGreedy(m, nl, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Translate(%v) = %v, scalar oracle %v", name, nl, got, want)
			}
		}
		if got, want := m.Translate(unl, ust), scalarGreedy(m, unl, ust); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: unseen schema: Translate = %v, scalar oracle %v", name, got, want)
		}
	}
}

// TestTranslateBatchSingletonGolden: batched decoding of a single
// input must be bit-identical to the scalar greedy oracle — the k=1
// equivalence that guarantees batching never changes single-request
// semantics.
func TestTranslateBatchSingletonGolden(t *testing.T) {
	m := trainedSeq2Seq(t)
	st := trainingExamples()[0].Schema
	for _, nl := range batchQuestions() {
		seq := scalarGreedy(m, nl, st)
		bat := m.TranslateBatch([][]string{nl}, st)
		if len(bat) != 1 || !reflect.DeepEqual(bat[0], seq) {
			t.Fatalf("TranslateBatch(k=1) diverged for %v:\n  batched: %v\n  scalar:  %v", nl, bat, seq)
		}
	}
}

// TestTranslateBatchRowGolden: at k=n, every row of the batched decode
// must equal the scalar translation of that row alone — batch
// composition must not leak between rows.
func TestTranslateBatchRowGolden(t *testing.T) {
	m := trainedSeq2Seq(t)
	st := trainingExamples()[0].Schema
	nls := batchQuestions()
	bat := m.TranslateBatch(nls, st)
	if len(bat) != len(nls) {
		t.Fatalf("TranslateBatch returned %d rows for %d inputs", len(bat), len(nls))
	}
	for r, nl := range nls {
		seq := scalarGreedy(m, nl, st)
		if !reflect.DeepEqual(bat[r], seq) {
			t.Fatalf("row %d diverged for %v:\n  batched: %v\n  scalar:  %v", r, nl, bat[r], seq)
		}
	}
	// Sub-batches in a different order must not change any row either.
	sub := [][]string{nls[3], nls[0], nls[6]}
	for r, got := range m.TranslateBatch(sub, st) {
		if want := scalarGreedy(m, sub[r], st); !reflect.DeepEqual(got, want) {
			t.Fatalf("sub-batch row %d = %v, want %v", r, got, want)
		}
	}
}

// TestTranslateBatchUnseenSchema: the copy path must survive batching
// — OOV schema tokens of a never-seen database still come out.
func TestTranslateBatchUnseenSchema(t *testing.T) {
	m := trainedSeq2Seq(t)
	st, nl := unseenSchema()
	seq := scalarGreedy(m, nl, st)
	bat := m.TranslateBatch([][]string{nl, strings.Fields("how many ship be there")}, st)
	if !reflect.DeepEqual(bat[0], seq) {
		t.Fatalf("unseen-schema batched row diverged:\n  batched: %v\n  scalar:  %v", bat[0], seq)
	}
}

// TestTranslateBatchEdgeCases: untrained models and empty batches keep
// the sequential path's shape.
func TestTranslateBatchEdgeCases(t *testing.T) {
	untrained := NewSeq2Seq(DefaultSeq2SeqConfig())
	if out := untrained.TranslateBatch([][]string{{"x"}}, []string{"t"}); len(out) != 1 || out[0] != nil {
		t.Fatalf("untrained TranslateBatch = %v, want [nil]", out)
	}
	m := trainedSeq2Seq(t)
	if out := m.TranslateBatch(nil, trainingExamples()[0].Schema); len(out) != 0 {
		t.Fatalf("empty batch returned %v", out)
	}
}

// TestTranslateEach: the generic fallback preserves index alignment.
func TestTranslateEach(t *testing.T) {
	m := trainedSeq2Seq(t)
	st := trainingExamples()[0].Schema
	nls := batchQuestions()[:3]
	each := TranslateEach(m, nls, st)
	for r, nl := range nls {
		if want := m.Translate(nl, st); !reflect.DeepEqual(each[r], want) {
			t.Fatalf("TranslateEach row %d = %v, want %v", r, each[r], want)
		}
	}
}
