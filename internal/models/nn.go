package models

import "repro/internal/tokens"

// NearestNeighbor is the last tier of the runtime degradation chain: a
// non-parametric Translator that memorizes its training pairs and
// answers a question with the SQL of the stored example whose NL
// tokens are closest under Jaccard similarity over token sets. It has
// no parameters, cannot panic on any input, and trains in O(n) — the
// always-available floor beneath the neural tiers.
//
// Ties are broken by the lowest stored index, so the answer depends
// only on the training order, never on map iteration or scheduling.
//
// The token sets are stored inverted: every distinct NL token is
// interned once and owns a posting list of the examples containing it,
// so a question counts intersections only for the examples its tokens
// touch instead of probing one set per stored example.
type NearestNeighbor struct {
	examples []Example
	ids      map[string]int32 // interned NL token -> token id
	postings [][]int32        // token id -> ascending indices of the examples containing it
	sizes    []int            // distinct NL tokens per example
}

// NewNearestNeighbor returns an untrained nearest-neighbor matcher.
func NewNearestNeighbor() *NearestNeighbor { return &NearestNeighbor{} }

// Name implements Translator.
func (m *NearestNeighbor) Name() string { return "template-nn" }

// Train implements Translator: it stores the examples and indexes
// their NL token sets.
func (m *NearestNeighbor) Train(examples []Example) {
	m.examples = append([]Example(nil), examples...)
	m.ids = map[string]int32{}
	m.postings = nil
	m.sizes = make([]int, len(m.examples))
	for i, ex := range m.examples {
		for _, t := range ex.NL {
			id, ok := m.ids[t]
			if !ok {
				id = int32(len(m.postings))
				m.ids[t] = id
				m.postings = append(m.postings, nil)
			}
			// Examples are indexed in order, so a token repeated within
			// this example finds the example already at its list's tail.
			p := m.postings[id]
			if len(p) > 0 && p[len(p)-1] == int32(i) {
				continue
			}
			m.postings[id] = append(p, int32(i))
			m.sizes[i]++
		}
	}
}

// Translate implements Translator: the SQL of the nearest stored
// example by Jaccard similarity of NL token sets, or nil when nothing
// was stored, the question is empty, or no example shares a token with
// it.
func (m *NearestNeighbor) Translate(nl, _ []string) []string {
	if len(nl) == 0 || len(m.examples) == 0 {
		return nil
	}
	// Every distinct question token widens the union; only the indexed
	// ones can intersect.
	seen := make(map[string]bool, len(nl))
	inter := make([]int32, len(m.examples))
	for _, t := range nl {
		if seen[t] {
			continue
		}
		seen[t] = true
		if id, ok := m.ids[t]; ok {
			for _, ex := range m.postings[id] {
				inter[ex]++
			}
		}
	}
	q := len(seen)
	// Only examples sharing a token have a positive similarity, and a
	// best similarity of 0 answers nil, so the others never matter.
	best, bestSim := -1, 0.0
	for i, n := range inter {
		if n == 0 {
			continue
		}
		if sim := tokens.Jaccard(int(n), q, m.sizes[i]); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if best < 0 {
		return nil
	}
	return append([]string(nil), m.examples[best].SQL...)
}
