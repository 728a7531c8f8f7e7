package sqlast

import (
	"sort"
	"strings"
	"testing"
)

// The hand-rolled recursive rewriters that Canonical and Pattern used
// before both became callbacks of Walk. They are kept as differential
// oracles: each rebuilds the condition tree node by node with its own
// type switch.

func oracleCanonical(q *Query) string {
	c := q.Clone()
	oracleCanonQuery(c)
	return c.String()
}

func oracleCanonQuery(q *Query) {
	for i := range q.Select {
		q.Select[i].Col = canonCol(q.Select[i].Col)
	}
	for i, t := range q.From.Tables {
		q.From.Tables[i] = strings.ToLower(t)
	}
	sort.Strings(q.From.Tables)
	q.Where = sortConjuncts(oracleCanonExpr(q.Where))
	for i := range q.GroupBy {
		q.GroupBy[i] = canonCol(q.GroupBy[i])
	}
	q.Having = sortConjuncts(oracleCanonExpr(q.Having))
	for i := range q.OrderBy {
		q.OrderBy[i].Item.Col = canonCol(q.OrderBy[i].Item.Col)
	}
}

func oracleCanonExpr(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case Logic:
		return Logic{Op: v.Op, Left: oracleCanonExpr(v.Left), Right: oracleCanonExpr(v.Right)}
	case Not:
		return Not{Inner: oracleCanonExpr(v.Inner)}
	case Comparison:
		return Comparison{Left: canonCol(v.Left), Op: v.Op, Right: oracleCanonOperand(v.Right)}
	case Between:
		return Between{Col: canonCol(v.Col), Lo: oracleCanonOperand(v.Lo), Hi: oracleCanonOperand(v.Hi)}
	case InSubquery:
		sub := v.Query.Clone()
		oracleCanonQuery(sub)
		return InSubquery{Col: canonCol(v.Col), Query: sub, Negated: v.Negated}
	case Exists:
		sub := v.Query.Clone()
		oracleCanonQuery(sub)
		return Exists{Query: sub, Negated: v.Negated}
	case HavingCond:
		item := v.Item
		item.Col = canonCol(item.Col)
		return HavingCond{Item: item, Op: v.Op, Right: oracleCanonOperand(v.Right)}
	default:
		return e
	}
}

func oracleCanonOperand(o Operand) Operand {
	switch v := o.(type) {
	case Placeholder:
		return Placeholder{Name: strings.ToUpper(v.Name)}
	case ColOperand:
		return ColOperand{Col: canonCol(v.Col)}
	case ScalarSubquery:
		sub := v.Query.Clone()
		oracleCanonQuery(sub)
		return ScalarSubquery{Query: sub}
	default:
		return o
	}
}

func oraclePattern(q *Query) string {
	c := q.Clone()
	oraclePatternQuery(c)
	return c.String()
}

func oraclePatternQuery(q *Query) {
	for i := range q.Select {
		q.Select[i].Col = patternCol(q.Select[i].Col)
	}
	if q.From.JoinPlaceholder || len(q.From.Tables) > 1 {
		q.From = From{Tables: []string{"J"}}
	} else {
		q.From = From{Tables: []string{"T"}}
	}
	q.Where = oraclePatternExpr(q.Where)
	for i := range q.GroupBy {
		q.GroupBy[i] = patternCol(q.GroupBy[i])
	}
	q.Having = oraclePatternExpr(q.Having)
	for i := range q.OrderBy {
		q.OrderBy[i].Item.Col = patternCol(q.OrderBy[i].Item.Col)
	}
	if q.Limit > 1 {
		q.Limit = 2
	}
}

func oraclePatternExpr(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case Logic:
		return Logic{Op: v.Op, Left: oraclePatternExpr(v.Left), Right: oraclePatternExpr(v.Right)}
	case Not:
		return Not{Inner: oraclePatternExpr(v.Inner)}
	case Comparison:
		return Comparison{Left: patternCol(v.Left), Op: patternOp(v.Op), Right: oraclePatternOperand(v.Right)}
	case Between:
		return Between{Col: patternCol(v.Col), Lo: oraclePatternOperand(v.Lo), Hi: oraclePatternOperand(v.Hi)}
	case InSubquery:
		sub := v.Query.Clone()
		oraclePatternQuery(sub)
		return InSubquery{Col: patternCol(v.Col), Query: sub, Negated: v.Negated}
	case Exists:
		sub := v.Query.Clone()
		oraclePatternQuery(sub)
		return Exists{Query: sub, Negated: v.Negated}
	case HavingCond:
		item := v.Item
		item.Col = patternCol(item.Col)
		return HavingCond{Item: item, Op: patternOp(v.Op), Right: oraclePatternOperand(v.Right)}
	default:
		return e
	}
}

func oraclePatternOperand(o Operand) Operand {
	switch v := o.(type) {
	case Value, Placeholder:
		return Placeholder{Name: "V"}
	case ColOperand:
		return ColOperand{Col: patternCol(v.Col)}
	case ScalarSubquery:
		sub := v.Query.Clone()
		oraclePatternQuery(sub)
		return ScalarSubquery{Query: sub}
	default:
		return o
	}
}

// FuzzRewriteDifferential asserts that Canonical and Pattern, written
// as Walk callbacks, agree with the recursive oracles on every query
// the parser accepts. The seeds are FuzzParse's corpus plus the
// operand shapes the old walkers disagreed on.
func FuzzRewriteDifferential(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT a FROM t WHERE m BETWEEN (SELECT MIN(x) FROM U WHERE y = @U.Y) AND b",
		"SELECT B, COUNT(*) FROM T GROUP BY b HAVING COUNT(*) > (SELECT max(c) FROM u WHERE z = 1 AND w = @u.w) AND MAX(d) < e",
		"SELECT a FROM t, u WHERE t.k = u.k AND NOT (a LIKE @T.A OR b IN (SELECT c FROM v WHERE d = 'x' AND c > 2)) LIMIT 7",
		"SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = (SELECT MIN(a) FROM v WHERE b = 2 AND a = 1))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		before := q.String()
		if got, want := q.Canonical(), oracleCanonical(q); got != want {
			t.Fatalf("Canonical(%q) = %q, oracle %q", input, got, want)
		}
		if got, want := q.Pattern(), oraclePattern(q); got != want {
			t.Fatalf("Pattern(%q) = %q, oracle %q", input, got, want)
		}
		if q.String() != before {
			t.Fatalf("rewrites mutated their input: %q became %q", before, q.String())
		}
	})
}
