package models

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// nnOracle is the map-per-example nearest-neighbor matcher the posting
// lists replaced, kept as the oracle of the golden test: one token set
// per stored example, every set probed for every question.
type nnOracle struct {
	examples []Example
	sets     []map[string]bool
}

func (m *nnOracle) Train(examples []Example) {
	m.examples = append([]Example(nil), examples...)
	m.sets = make([]map[string]bool, len(m.examples))
	for i, ex := range m.examples {
		m.sets[i] = tokenSet(ex.NL)
	}
}

func (m *nnOracle) Translate(nl []string) []string {
	q := tokenSet(nl)
	if len(q) == 0 || len(m.examples) == 0 {
		return nil
	}
	best, bestSim := -1, -1.0
	for i, s := range m.sets {
		sim := jaccard(q, s)
		if sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if best < 0 || bestSim <= 0 {
		return nil
	}
	return append([]string(nil), m.examples[best].SQL...)
}

func tokenSet(toks []string) map[string]bool {
	s := make(map[string]bool, len(toks))
	for _, t := range toks {
		s[t] = true
	}
	return s
}

func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TestNearestNeighborGolden: the posting-list matcher answers exactly
// as the map-per-example oracle on random corpora over a small token
// pool — so exact ties, repeated tokens, empty NL examples and
// questions, and tokens no example contains are all common — and on
// the fixture corpus.
func TestNearestNeighborGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := make([]string, 24)
	for i := range pool {
		pool[i] = fmt.Sprintf("w%d", i)
	}
	draw := func(max int) []string {
		toks := make([]string, rng.Intn(max+1))
		for i := range toks {
			toks[i] = pool[rng.Intn(len(pool))]
		}
		return toks
	}
	corpora := [][]Example{nil, trainingExamples()}
	for _, n := range []int{1, 7, 300} {
		exs := make([]Example, n)
		for i := range exs {
			exs[i] = Example{NL: draw(6), SQL: []string{"SELECT", fmt.Sprint(i)}}
		}
		corpora = append(corpora, exs)
	}
	for ci, exs := range corpora {
		var got NearestNeighbor
		var want nnOracle
		got.Train(exs)
		want.Train(exs)
		questions := [][]string{nil, {"unseen"}, {"w1", "w1", "w1"}}
		for _, ex := range exs {
			questions = append(questions, ex.NL)
		}
		for i := 0; i < 300; i++ {
			q := draw(9)
			if i%5 == 0 {
				q = append(q, "unseen")
			}
			questions = append(questions, q)
		}
		for _, q := range questions {
			if g, w := got.Translate(q, nil), want.Translate(q); !reflect.DeepEqual(g, w) {
				t.Fatalf("corpus %d, question %v: Translate = %v, oracle %v", ci, q, g, w)
			}
		}
	}
}
