package sqlast

import (
	"fmt"
	"strings"
)

// Pattern returns the structural signature of the query: every table is
// replaced by T, every column by C, and every constant or placeholder
// by ?. Aggregates, logical structure, grouping, ordering, limits, and
// nesting survive. Queries with the same Pattern belong to the same
// "query pattern" in the sense of the paper's Table 4 (pattern-coverage
// breakdown).
func (q *Query) Pattern() string {
	c := q.Clone()
	Walk(c, Visitor{
		Scope: func(s *Query) bool {
			// The @JOIN placeholder and a multi-table FROM are the
			// same pattern once resolved; normalize to a single J
			// marker.
			if s.From.JoinPlaceholder || len(s.From.Tables) > 1 {
				s.From = From{Tables: []string{"J"}}
			} else {
				s.From = From{Tables: []string{"T"}}
			}
			// LIMIT 1 (argmax) is its own pattern; any larger
			// constant is the generic top-k pattern.
			if s.Limit > 1 {
				s.Limit = 2
			}
			return true
		},
		Column: func(_ *Query, c ColumnRef) ColumnRef { return patternCol(c) },
		Operand: func(_ *Query, _ *ColumnRef, op CmpOp, o Operand) (CmpOp, Operand) {
			switch o.(type) {
			case Value, Placeholder:
				o = Placeholder{Name: "V"}
			}
			return patternOp(op), o
		},
	})
	return c.String()
}

func patternCol(c ColumnRef) ColumnRef {
	if c.Column == "" {
		return c
	}
	if c.Column == "*" {
		return ColumnRef{Column: "*"}
	}
	return ColumnRef{Column: "C"}
}

// patternOp collapses operator direction: all inequality comparisons
// are one pattern class, equality/inequality another, LIKE its own.
func patternOp(op CmpOp) CmpOp {
	switch op {
	case OpEq, OpNe:
		return OpEq
	case OpLike:
		return OpLike
	default:
		return OpGt
	}
}

// Difficulty is the Spider-style complexity bucket of a query.
type Difficulty int

// Difficulty buckets, in increasing order.
const (
	Easy Difficulty = iota
	Medium
	Hard
	VeryHard
)

// String returns the bucket name as the paper spells it.
func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "Easy"
	case Medium:
		return "Medium"
	case Hard:
		return "Hard"
	case VeryHard:
		return "Very Hard"
	default:
		return fmt.Sprintf("Difficulty(%d)", int(d))
	}
}

// Difficulties lists all buckets in order for reporting.
var Difficulties = []Difficulty{Easy, Medium, Hard, VeryHard}

// QueryDifficulty classifies a query into the Spider-style buckets by
// counting SQL components over the whole query including subqueries,
// mirroring the benchmark's heuristic: more components (predicates,
// grouping, ordering, joins, aggregates, disjunction) push a query up
// a bucket, and nesting pushes it to at least Hard (Very Hard when
// combined with other components).
func QueryDifficulty(q *Query) Difficulty {
	score := 0
	WalkQueries(q, func(sub *Query) {
		score += len(Conjuncts(sub.Where))
		if len(sub.GroupBy) > 0 {
			score += 2
		}
		if sub.Having != nil {
			score++
		}
		if len(sub.OrderBy) > 0 {
			score++
		}
		if sub.Limit >= 0 {
			score++
		}
		for _, s := range sub.Select {
			if s.Agg != AggNone {
				score++
			}
		}
		if len(sub.Select) > 2 {
			score++
		}
		joinTables := len(sub.From.Tables)
		if sub.From.JoinPlaceholder {
			joinTables = 2
		}
		if joinTables > 1 {
			score += 2 * (joinTables - 1)
		}
		if hasOr(sub.Where) || hasOr(sub.Having) {
			score++
		}
	})
	nested := q.HasSubquery()
	switch {
	case nested && score >= 3:
		return VeryHard
	case nested:
		return Hard
	case score >= 6:
		return VeryHard
	case score >= 4:
		return Hard
	case score >= 2:
		return Medium
	default:
		return Easy
	}
}

func hasOr(e Expr) bool {
	switch v := e.(type) {
	case Logic:
		if v.Op == OpOr {
			return true
		}
		return hasOr(v.Left) || hasOr(v.Right)
	case Not:
		return hasOr(v.Inner)
	default:
		return false
	}
}

// Tokens linearizes the query into the token sequence consumed and
// produced by the neural translators. Identifiers keep their case;
// punctuation and keywords are separate tokens; placeholders keep
// their leading '@'. The sequence round-trips through ParseTokens.
func (q *Query) Tokens() []string {
	toks, err := lex(q.String())
	if err != nil {
		// The printer only emits lexable text.
		panic(fmt.Sprintf("sqlast: Tokens: internal error lexing %q: %v", q.String(), err))
	}
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		switch t.kind {
		case tokEOF:
		case tokPlaceholder:
			out = append(out, "@"+t.text)
		case tokString:
			out = append(out, "'"+strings.ReplaceAll(t.text, "'", "''")+"'")
		default:
			out = append(out, t.text)
		}
	}
	return out
}

// ParseTokens reassembles a token sequence produced by Tokens (or by a
// model decoding step) into a query.
func ParseTokens(tokens []string) (*Query, error) {
	return Parse(strings.Join(tokens, " "))
}
