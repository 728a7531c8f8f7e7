package models

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/neural"
	"repro/internal/tokens"
)

// savedSeq2Seq is the full serialized form of a trained Seq2Seq model:
// configuration, vocabulary, and weights.
type savedSeq2Seq struct {
	Config Seq2SeqConfig
	Vocab  []string
	Mats   []savedParam
}

type savedParam struct {
	Name string
	R, C int
	W    []float64
}

// SaveFull writes the complete trained model (config + vocabulary +
// weights) so it can be restored without retraining.
func (m *Seq2Seq) SaveFull(w io.Writer) error {
	if m.vocab == nil || m.ps == nil {
		return fmt.Errorf("models: cannot save untrained seq2seq model")
	}
	out := savedSeq2Seq{Config: m.cfg, Vocab: m.vocab.Words()}
	for i, mat := range m.ps.Mats() {
		out.Mats = append(out.Mats, savedParam{
			Name: m.ps.Names()[i], R: mat.R, C: mat.C, W: mat.W,
		})
	}
	return gob.NewEncoder(w).Encode(out)
}

// LoadSeq2Seq restores a model saved with SaveFull.
func LoadSeq2Seq(r io.Reader) (*Seq2Seq, error) {
	var in savedSeq2Seq
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("models: load seq2seq: %w", err)
	}
	m := NewSeq2Seq(in.Config)
	m.vocab = vocabFromWords(in.Vocab)
	m.build(m.vocab.Size())
	if err := restoreParams(m.ps.Mats(), m.ps.Names(), in.Mats); err != nil {
		return nil, err
	}
	m.refreshTables()
	return m, nil
}

// savedSketch is the full serialized form of a trained Sketch model.
type savedSketch struct {
	Config   SketchConfig
	Vocab    []string
	Sketches []savedSketchEntry
	Mats     []savedParam
}

type savedSketchEntry struct {
	Tokens  []string
	Kinds   []int
	Clauses []int
	Key     string
}

// SaveFull writes the complete trained sketch model.
func (m *Sketch) SaveFull(w io.Writer) error {
	if m.vocab == nil || m.ps == nil {
		return fmt.Errorf("models: cannot save untrained sketch model")
	}
	out := savedSketch{Config: m.cfg, Vocab: m.vocab.Words()}
	for _, sk := range m.sketches {
		kinds := make([]int, len(sk.kinds))
		for i, k := range sk.kinds {
			kinds[i] = int(k)
		}
		clauses := make([]int, len(sk.clauses))
		for i, c := range sk.clauses {
			clauses[i] = int(c)
		}
		out.Sketches = append(out.Sketches, savedSketchEntry{Tokens: sk.tokens, Kinds: kinds, Clauses: clauses, Key: sk.key})
	}
	for i, mat := range m.ps.Mats() {
		out.Mats = append(out.Mats, savedParam{Name: m.ps.Names()[i], R: mat.R, C: mat.C, W: mat.W})
	}
	return gob.NewEncoder(w).Encode(out)
}

// LoadSketch restores a model saved with SaveFull.
func LoadSketch(r io.Reader) (*Sketch, error) {
	var in savedSketch
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("models: load sketch: %w", err)
	}
	m := NewSketch(in.Config)
	m.vocab = vocabFromWords(in.Vocab)
	for _, se := range in.Sketches {
		kinds := make([]slotKind, len(se.Kinds))
		for i, k := range se.Kinds {
			kinds[i] = slotKind(k)
		}
		clauses := make([]clause, len(se.Clauses))
		for i, c := range se.Clauses {
			clauses[i] = clause(c)
		}
		m.byKey[se.Key] = len(m.sketches)
		m.sketches = append(m.sketches, sketch{tokens: se.Tokens, kinds: kinds, clauses: clauses, key: se.Key})
	}
	// Rebuild parameters with the right shapes, then restore weights.
	m.buildParams()
	if err := restoreParams(m.ps.Mats(), m.ps.Names(), in.Mats); err != nil {
		return nil, err
	}
	return m, nil
}

func vocabFromWords(words []string) *tokens.Vocab {
	v := tokens.NewVocab()
	for _, w := range words {
		v.Add(w)
	}
	return v
}

func restoreParams(mats []*neural.Mat, names []string, saved []savedParam) error {
	byName := map[string]savedParam{}
	for _, s := range saved {
		byName[s.Name] = s
	}
	for i, m := range mats {
		s, ok := byName[names[i]]
		if !ok {
			return fmt.Errorf("models: restore: missing parameter %q", names[i])
		}
		if s.R != m.R || s.C != m.C {
			return fmt.Errorf("models: restore: shape mismatch for %q: have %dx%d, saved %dx%d",
				names[i], m.R, m.C, s.R, s.C)
		}
		copy(m.W, s.W)
	}
	return nil
}
