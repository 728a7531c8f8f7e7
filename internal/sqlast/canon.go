package sqlast

import (
	"sort"
	"strings"
)

// Canonical returns a normalized rendering of the query used for
// exact-match accuracy (the Spider-style metric): identifiers and
// placeholders are case-folded, top-level AND conjuncts of WHERE and
// HAVING are sorted, select/group/order lists keep their order (it is
// semantically significant), and ASC markers are implied. Two queries
// are "exact match equal" iff their Canonical strings are equal.
func (q *Query) Canonical() string {
	c := q.Clone()
	var scopes []*Query
	Walk(c, Visitor{
		Scope: func(s *Query) bool {
			for i, t := range s.From.Tables {
				s.From.Tables[i] = strings.ToLower(t)
			}
			sort.Strings(s.From.Tables)
			scopes = append(scopes, s)
			return true
		},
		Column: func(_ *Query, c ColumnRef) ColumnRef { return canonCol(c) },
		Operand: func(_ *Query, _ *ColumnRef, op CmpOp, o Operand) (CmpOp, Operand) {
			if p, ok := o.(Placeholder); ok {
				return op, Placeholder{Name: strings.ToUpper(p.Name)}
			}
			return op, o
		},
	})
	// Conjuncts sort by their rendering, which includes the subqueries
	// they hold: sort innermost scopes first.
	for i := len(scopes) - 1; i >= 0; i-- {
		scopes[i].Where = sortConjuncts(scopes[i].Where)
		scopes[i].Having = sortConjuncts(scopes[i].Having)
	}
	return c.String()
}

// EqualCanonical reports whether two queries are equal under Canonical
// normalization. Either may be nil.
func EqualCanonical(a, b *Query) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Canonical() == b.Canonical()
}

func canonCol(c ColumnRef) ColumnRef {
	return ColumnRef{Table: strings.ToLower(c.Table), Column: strings.ToLower(c.Column)}
}

// sortConjuncts sorts top-level AND conjuncts by their rendering so
// that "a AND b" equals "b AND a" under canonical comparison.
func sortConjuncts(e Expr) Expr {
	if e == nil {
		return nil
	}
	parts := Conjuncts(e)
	if len(parts) <= 1 {
		return e
	}
	sort.Slice(parts, func(i, j int) bool {
		return parts[i].String() < parts[j].String()
	})
	return AndAll(parts)
}
