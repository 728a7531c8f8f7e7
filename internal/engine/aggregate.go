package engine

import (
	"sort"

	"repro/internal/sqlast"
)

// group collects the source rows sharing one GROUP BY key.
type group struct {
	key  Row
	rows []Row
}

// aggregate evaluates a grouped (or globally aggregated) query over the
// filtered rows: grouping, aggregate computation, HAVING, projection,
// and ORDER BY over group outputs.
func (ex *executor) aggregate(q *sqlast.Query, b *binding, rows []Row) (*Result, error) {
	keyPos := make([]int, len(q.GroupBy))
	for i, c := range q.GroupBy {
		p, err := b.resolve(c)
		if err != nil {
			return nil, err
		}
		keyPos[i] = p
	}

	// Build groups preserving first-appearance order.
	var groups []*group
	index := map[string]*group{}
	for _, row := range rows {
		key := make(Row, len(keyPos))
		for i, p := range keyPos {
			key[i] = row[p]
		}
		k := sortedRowKeys([]Row{key})[0]
		g, ok := index[k]
		if !ok {
			g = &group{key: key}
			index[k] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}
	// A global aggregate (no GROUP BY) over zero rows still produces
	// one group so COUNT(*) yields 0.
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}

	// HAVING filter.
	var kept []*group
	for _, g := range groups {
		ok, err := ex.evalHaving(q.Having, b, g, keyPos)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, g)
		}
	}

	// Project.
	var cols []string
	for _, sel := range q.Select {
		cols = append(cols, sel.String())
	}
	res := &Result{Columns: cols}
	type outPair struct {
		out  Row
		keys Row
	}
	var pairs []outPair
	for _, g := range kept {
		outRow := make(Row, 0, len(q.Select))
		for _, sel := range q.Select {
			v, err := ex.evalAggItem(sel, b, g, keyPos, q)
			if err != nil {
				return nil, err
			}
			outRow = append(outRow, v)
		}
		var keys Row
		for _, oi := range q.OrderBy {
			v, err := ex.evalAggItem(oi.Item, b, g, keyPos, q)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		pairs = append(pairs, outPair{out: outRow, keys: keys})
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(pairs, func(i, j int) bool {
			for k, oi := range q.OrderBy {
				a, bb := pairs[i].keys[k], pairs[j].keys[k]
				if a.Equal(bb) {
					continue
				}
				if oi.Desc {
					return bb.Less(a)
				}
				return a.Less(bb)
			}
			return false
		})
	}
	for _, p := range pairs {
		res.Rows = append(res.Rows, p.out)
	}
	return res, nil
}

// evalAggItem evaluates one select/order item in grouped context: an
// aggregate over the group's rows, or a GROUP BY key column.
func (ex *executor) evalAggItem(sel sqlast.SelectItem, b *binding, g *group, keyPos []int, q *sqlast.Query) (Value, error) {
	if sel.Agg != sqlast.AggNone {
		return ex.computeAgg(sel, b, g.rows)
	}
	if sel.Star {
		return Value{}, execError(ErrGrouping, "bare * is not valid in a grouped query")
	}
	p, err := b.resolve(sel.Col)
	if err != nil {
		return Value{}, err
	}
	for i, kp := range keyPos {
		if kp == p {
			return g.key[i], nil
		}
	}
	return Value{}, execError(ErrGrouping, "column %q must appear in GROUP BY or inside an aggregate", sel.Col)
}

// computeAgg computes one aggregate over the rows of a group.
func (ex *executor) computeAgg(sel sqlast.SelectItem, b *binding, rows []Row) (Value, error) {
	if sel.Agg == sqlast.AggCount && sel.Star {
		return Num(float64(len(rows))), nil
	}
	p := -1
	if !sel.Star {
		var err error
		p, err = b.resolve(sel.Col)
		if err != nil {
			return Value{}, err
		}
	}
	var vals []Value
	for _, r := range rows {
		v := r[p]
		if v.Null {
			continue
		}
		vals = append(vals, v)
	}
	if sel.Distinct {
		seen := map[string]bool{}
		var dd []Value
		for _, v := range vals {
			k := sortedRowKeys([]Row{{v}})[0]
			if !seen[k] {
				seen[k] = true
				dd = append(dd, v)
			}
		}
		vals = dd
	}
	switch sel.Agg {
	case sqlast.AggCount:
		return Num(float64(len(vals))), nil
	case sqlast.AggSum, sqlast.AggAvg:
		sum := 0.0
		for _, v := range vals {
			if !v.IsNum {
				return Value{}, execError(ErrTypeMismatch, "%s over non-numeric column %q", sel.Agg, sel.Col)
			}
			sum += v.Num
		}
		if sel.Agg == sqlast.AggSum {
			return Num(sum), nil
		}
		if len(vals) == 0 {
			return Null, nil
		}
		return Num(sum / float64(len(vals))), nil
	case sqlast.AggMin, sqlast.AggMax:
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if sel.Agg == sqlast.AggMin && v.Less(best) {
				best = v
			}
			if sel.Agg == sqlast.AggMax && best.Less(v) {
				best = v
			}
		}
		return best, nil
	default:
		return Value{}, execErrorf("unsupported aggregate %v", sel.Agg)
	}
}

// evalHaving evaluates a HAVING condition for one group.
func (ex *executor) evalHaving(e sqlast.Expr, b *binding, g *group, keyPos []int) (bool, error) {
	switch v := e.(type) {
	case nil:
		return true, nil
	case sqlast.Logic:
		left, err := ex.evalHaving(v.Left, b, g, keyPos)
		if err != nil {
			return false, err
		}
		right, err := ex.evalHaving(v.Right, b, g, keyPos)
		if err != nil {
			return false, err
		}
		if v.Op == sqlast.OpAnd {
			return left && right, nil
		}
		return left || right, nil
	case sqlast.Not:
		inner, err := ex.evalHaving(v.Inner, b, g, keyPos)
		if err != nil {
			return false, err
		}
		return !inner, nil
	case sqlast.HavingCond:
		left, err := ex.computeAgg(v.Item, b, g.rows)
		if err != nil {
			return false, err
		}
		// A column on the RHS is valued per group like a bare select
		// column (a GROUP BY key, else a grouping error); any other
		// operand is a constant or scalar subquery.
		var rhs Value
		if c, ok := v.Right.(sqlast.ColOperand); ok {
			rhs, err = ex.evalAggItem(sqlast.SelectItem{Col: c.Col}, b, g, keyPos, nil)
		} else {
			rhs, err = ex.evalOperand(v.Right, b, nil)
		}
		if err != nil {
			return false, err
		}
		return compare(left, v.Op, rhs)
	default:
		return false, execErrorf("unsupported HAVING condition %T", e)
	}
}
