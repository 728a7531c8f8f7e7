package models

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/tokens"
)

// roughSeq2Seq is a barely trained model with the trained fixture's
// shapes and vocabulary: its decodes run long and copy freely, and its
// weights can be loaded into the fixture.
func roughSeq2Seq() *Seq2Seq {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 1
	cfg.EmbDim = 24
	cfg.HidDim = 48
	m := NewSeq2Seq(cfg)
	m.Train(trainingExamples())
	return m
}

// mixtureCase is one decode step's inputs to the generate/copy mixture.
type mixtureCase struct {
	input []string
	pv    []float64
	pgen  float64
	alpha []float64
}

// mixtureCases returns hand-written steps — out-of-vocabulary schema
// tokens, repeated input tokens, <sep>, a literal <unk>, exact ties
// between vocabulary and copied tokens and among copied tokens, NaN —
// followed by random steps whose dyadic probabilities make ties common.
func mixtureCases(v *tokens.Vocab) []mixtureCase {
	n := v.Size()
	uniform := func(p float64) []float64 {
		pv := make([]float64, n)
		for i := range pv {
			pv[i] = p
		}
		return pv
	}
	onehot := func(id int, p float64) []float64 {
		pv := make([]float64, n)
		pv[id] = p
		return pv
	}
	in := strings.Fields("show name name of zeta <sep> patients alpha zeta patients.name @JOIN")
	cases := []mixtureCase{
		// Copy mass of the repeated "zeta" (0.5) beats every vocab entry.
		{in, uniform(0.01), 0.5, []float64{0, 0.1, 0.1, 0, 0.25, 0, 0, 0.05, 0.25, 0.2, 0.05}},
		// Repeated in-vocabulary "name" sums to the winner.
		{in, uniform(0.01), 0.5, []float64{0, 0.3, 0.3, 0, 0.1, 0, 0, 0.1, 0.1, 0.1, 0.1}},
		// <sep> carries all the attention: it must never be emitted.
		{in, uniform(0), 0, []float64{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0}},
		// Exact tie between two OOV tokens: the sorted-first wins.
		{in, uniform(0), 0.5, []float64{0, 0, 0, 0, 0.25, 0, 0, 0.5, 0.25, 0, 0}},
		// Exact tie between a vocabulary id and an OOV token: the
		// vocabulary scan comes first, so it wins.
		{in, onehot(v.ID("show"), 0.5), 0.5, []float64{0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0, 0.5}},
		// Pure generation with a tie across ids: lowest id wins.
		{in, uniform(1 / float64(n)), 1, []float64{0.5, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		// A literal <unk> input and an OOV token; <unk> is never emitted.
		{strings.Fields("<unk> kappa <sep> name"), uniform(0), 0, []float64{0.7, 0.2, 0, 0.1}},
		// Every probability NaN: nothing beats -Inf, so <eos>.
		{in, uniform(math.NaN()), math.NaN(), make([]float64, len(in))},
	}
	rng := rand.New(rand.NewSource(17))
	pool := append(v.Words(), "zeta", "alpha", "kappa", "ships.label", "@SHIPS.TONNAGE")
	dyadic := []float64{0, 0.0625, 0.125, 0.25, 0.5}
	for trial := 0; trial < 400; trial++ {
		c := mixtureCase{pgen: []float64{0, 0.25, 0.5, 1}[rng.Intn(4)]}
		for i := 1 + rng.Intn(14); i > 0; i-- {
			c.input = append(c.input, pool[rng.Intn(len(pool))])
			c.alpha = append(c.alpha, dyadic[rng.Intn(len(dyadic))])
		}
		c.pv = make([]float64, n)
		for i := range c.pv {
			c.pv[i] = dyadic[rng.Intn(len(dyadic))]
		}
		cases = append(cases, c)
	}
	return cases
}

// TestCopyMixtureGolden: the copy plan's mixture, argmax and top-k
// ranking agree with the map-based versions they replaced on every
// mixture case — the same greedy token, and the same ranked candidates
// with Float64bits-equal probabilities.
func TestCopyMixtureGolden(t *testing.T) {
	v := vocabFromWords(strings.Fields("show name of patients patients.name @JOIN age"))
	m := &Seq2Seq{vocab: v}
	for i, c := range mixtureCases(v) {
		what := fmt.Sprintf("case %d %v pgen=%v", i, c.input, c.pgen)
		cp := newCopyPlan(v, c.input, v.Encode(c.input))
		mix := make([]float64, cp.size())
		cp.mixture(c.pv, c.pgen, c.alpha, mix)

		if got, want := cp.token(v, pickToken(mix)), m.pickTokenMap(c.pv, c.pgen, c.alpha, c.input); got != want {
			t.Fatalf("%s: pickToken = %q, map oracle %q", what, got, want)
		}
		got := m.topTokens(cp, mix, len(mix))
		want := m.topTokensMap(&decStep{pv: c.pv, pgen: c.pgen, alpha: c.alpha}, &encState{toks: c.input}, len(mix))
		if len(got) != len(want) {
			t.Fatalf("%s: topTokens returned %d candidates, map oracle %d", what, len(got), len(want))
		}
		for j := range want {
			if got[j].tok != want[j].tok || math.Float64bits(got[j].p) != math.Float64bits(want[j].p) {
				t.Fatalf("%s: candidate %d = %q %v, map oracle %q %v", what, j, got[j].tok, got[j].p, want[j].tok, want[j].p)
			}
		}
	}
}

// goldenQuestions is every question the decode golden tests run on the
// fixture schema.
func goldenQuestions() [][]string {
	var nls [][]string
	for _, ex := range trainingExamples() {
		nls = append(nls, ex.NL)
	}
	return append(nls, batchQuestions()...)
}

// requireScalarGolden asserts Translate matches the scalar greedy
// oracle on every golden question and returns the translations.
func requireScalarGolden(t *testing.T, what string, m *Seq2Seq) []string {
	t.Helper()
	st := trainingExamples()[0].Schema
	var outs []string
	for _, nl := range goldenQuestions() {
		got, want := m.Translate(nl, st), scalarGreedy(m, nl, st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Translate(%v) = %v, scalar oracle %v", what, nl, got, want)
		}
		outs = append(outs, strings.Join(got, " "))
	}
	return outs
}

// TestGateTableLoadIntoGolden: LoadInto rebuilds the gate tables, so a
// model that already decoded with one set of weights decodes with the
// loaded ones afterwards — matching the scalar oracle, which reads the
// weights directly, and the model the weights came from.
func TestGateTableLoadIntoGolden(t *testing.T) {
	m := trainedSeq2Seq(t)
	before := requireScalarGolden(t, "before LoadInto", m)
	src := roughSeq2Seq()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadInto(&buf); err != nil {
		t.Fatal(err)
	}
	after := requireScalarGolden(t, "after LoadInto", m)
	if want := requireScalarGolden(t, "source model", src); !reflect.DeepEqual(after, want) {
		t.Fatalf("after LoadInto the model decodes %v, the source model %v", after, want)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("the loaded weights decode like the old ones; the test cannot see stale tables")
	}
}

// TestGateTableResumeGolden: training interrupted at a checkpoint
// leaves tables for the weights it stopped at, and resuming on the
// same model rebuilds them for the finished weights.
func TestGateTableResumeGolden(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 3
	cfg.EmbDim = 24
	cfg.HidDim = 48
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ck *Checkpoint
	m := NewSeq2Seq(cfg)
	err := m.TrainContext(ctx, trainingExamples(), TrainOptions{
		CheckpointEvery: 2,
		OnCheckpoint: func(c *Checkpoint) {
			if ck == nil {
				cancel()
			}
			ck = c
		},
	})
	if !errors.Is(err, context.Canceled) || ck == nil {
		t.Fatalf("interrupted training returned %v (checkpoint %v), want context.Canceled", err, ck != nil)
	}
	before := requireScalarGolden(t, "interrupted", m)
	if err := m.TrainContext(context.Background(), trainingExamples(), TrainOptions{Resume: ck}); err != nil {
		t.Fatal(err)
	}
	if after := requireScalarGolden(t, "resumed", m); reflect.DeepEqual(before, after) {
		t.Fatal("the resumed weights decode like the interrupted ones; the test cannot see stale tables")
	}
}

// TestGateTableConcurrentGolden: concurrent decodes share one model's
// gate tables with no lock; every decode, on every goroutine, still
// matches the scalar oracle. Run under -race, this is the check that
// decoding only reads the tables.
func TestGateTableConcurrentGolden(t *testing.T) {
	m := trainedSeq2Seq(t)
	st := trainingExamples()[0].Schema
	nls := goldenQuestions()
	want := make([][]string, len(nls))
	for i, nl := range nls {
		want[i] = scalarGreedy(m, nl, st)
	}
	par.Map(4, 4*len(nls), func(i int) {
		if got := m.Translate(nls[i%len(nls)], st); !reflect.DeepEqual(got, want[i%len(nls)]) {
			t.Errorf("concurrent Translate(%v) = %v, scalar oracle %v", nls[i%len(nls)], got, want[i%len(nls)])
		}
	})
}
