// Package models provides the pluggable NL2SQL translation models that
// DBPal's pipeline trains. Two architectures are included:
//
//   - Seq2Seq: an attention + copy (pointer-generator) encoder-decoder,
//     the "generic seq2seq" family of the paper;
//   - Sketch: a syntax-guided model in the spirit of SyntaxSQLNet —
//     a query-pattern classifier plus per-slot schema pointers.
//
// Both implement Translator, the pluggability contract of the paper:
// anything that trains on (NL tokens, SQL tokens, schema tokens)
// triples can be slotted into the pipeline.
package models

import (
	"context"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// Example is one training or inference instance: lemmatized,
// anonymized NL tokens, target SQL tokens, and the schema-token
// context of the example's database.
type Example struct {
	NL     []string
	SQL    []string
	Schema []string
}

// Translator is the pluggable model contract.
type Translator interface {
	// Train fits the model to the examples. Deterministic given the
	// model's construction seed.
	Train(examples []Example)
	// Translate maps NL tokens plus schema context to SQL tokens.
	Translate(nl, schemaToks []string) []string
	// Name identifies the architecture for reports.
	Name() string
}

// SchemaTokens linearizes a schema into the token context fed to the
// models: for every table its name, then for every column the bare
// column name, the qualified table.column name, and the anonymized
// placeholder token. The model's copy mechanism can thus produce any
// schema element, even for schemas unseen in training.
func SchemaTokens(s *schema.Schema) []string {
	var out []string
	seen := map[string]bool{}
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range s.Tables {
		add(strings.ToLower(t.Name))
		for _, c := range t.Columns {
			add(strings.ToLower(c.Name))
			add(strings.ToLower(t.Name) + "." + strings.ToLower(c.Name))
			add("@" + strings.ToUpper(t.Name) + "." + strings.ToUpper(c.Name))
		}
	}
	add("@JOIN")
	return out
}

// PairExamples converts pipeline pairs for one schema into model
// examples. Pairs whose SQL fails to parse are skipped (the pipeline
// validates SQL, so this is defensive).
func PairExamples(pairs []core.Pair, s *schema.Schema) []Example {
	st := SchemaTokens(s)
	out := make([]Example, 0, len(pairs))
	for _, p := range pairs {
		if ex, ok := pairExample(p, st); ok {
			out = append(out, ex)
		}
	}
	return out
}

// PairExamplesCtx is PairExamples converting chunks of pairs in
// parallel into index-aligned slots, so the result is the same at any
// worker count. Cancellation is observed between chunks; a cancelled
// conversion returns the context's error and no examples.
func PairExamplesCtx(ctx context.Context, pairs []core.Pair, s *schema.Schema) ([]Example, error) {
	st := SchemaTokens(s)
	out := make([]Example, len(pairs))
	ok := make([]bool, len(pairs))
	const chunk = 256
	err := par.MapCtx(ctx, 0, (len(pairs)+chunk-1)/chunk, func(c int) {
		for i := c * chunk; i < min((c+1)*chunk, len(pairs)); i++ {
			out[i], ok[i] = pairExample(pairs[i], st)
		}
	})
	if err != nil {
		return nil, err
	}
	// Compact in place: slot i moves only to an index <= i.
	kept := out[:0]
	for i, ex := range out {
		if ok[i] {
			kept = append(kept, ex)
		}
	}
	return kept, nil
}

// pairExample converts one pair given its schema's tokens; ok is false
// when the pair's SQL does not parse.
func pairExample(p core.Pair, st []string) (Example, bool) {
	q, err := sqlast.Parse(p.SQL)
	if err != nil {
		return Example{}, false
	}
	return Example{NL: tokens.Tokenize(p.NL), SQL: NormalizeSQLTokens(q.Tokens()), Schema: st}, true
}

// NormalizeSQLTokens lower-cases identifiers, keeping keywords
// upper-case and placeholders in their canonical form, so that the
// output vocabulary is case-stable.
func NormalizeSQLTokens(toks []string) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		switch {
		case tokens.IsPlaceholder(t):
			out[i] = "@" + strings.ToUpper(t[1:])
		case isSQLKeyword(t):
			out[i] = strings.ToUpper(t)
		default:
			out[i] = strings.ToLower(t)
		}
	}
	return out
}

var sqlKeywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"group": true, "by": true, "having": true, "order": true,
	"limit": true, "and": true, "or": true, "not": true, "in": true,
	"exists": true, "between": true, "like": true, "asc": true,
	"desc": true, "count": true, "sum": true, "avg": true, "min": true,
	"max": true,
}

func isSQLKeyword(t string) bool { return sqlKeywords[strings.ToLower(t)] }

// InputSequence builds the full model input: NL tokens, a separator,
// then the schema tokens.
func InputSequence(nl, schemaToks []string) []string {
	out := make([]string, 0, len(nl)+1+len(schemaToks))
	out = append(out, nl...)
	out = append(out, tokens.SepToken)
	out = append(out, schemaToks...)
	return out
}

// BuildVocabs constructs the shared input/output vocabulary from
// training examples. One joint vocabulary keeps the copy mechanism
// simple: a copied input token and the same output token share an id
// when in vocabulary.
func BuildVocabs(examples []Example, minCount int) *tokens.Vocab {
	var seqs [][]string
	for _, e := range examples {
		seqs = append(seqs, e.NL, e.SQL, e.Schema)
	}
	return tokens.BuildVocab(seqs, minCount)
}

// sortedKeys is a small helper for deterministic map iteration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
