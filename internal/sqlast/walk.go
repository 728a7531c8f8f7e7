package sqlast

// Visitor receives the sites of a query tree from Walk. A nil field is
// not called.
type Visitor struct {
	// Scope is called on entering each query scope, before any of its
	// sites, so it may act on the scope's FROM first. Returning false
	// skips the scope's sites and every subquery nested in it.
	Scope func(q *Query) bool
	// Column is called for every column reference: non-star select
	// and ORDER BY items, GROUP BY keys, the columns of WHERE
	// predicates, HAVING aggregate arguments and column operands. It
	// returns the column to store there.
	Column func(scope *Query, c ColumnRef) ColumnRef
	// Operand is called for every operand site: the right-hand side of
	// a comparison or a HAVING comparison, and each BETWEEN bound.
	// left is the predicate's column, nil under HAVING (whose left side
	// is an aggregate), and op its operator; a BETWEEN bound carries
	// OpGe (low) or OpLe (high), and a rewrite of those is dropped. It
	// returns the operator and operand to store there; the walk then
	// descends into the operand it stored (a column operand's column,
	// a scalar subquery).
	Operand func(scope *Query, left *ColumnRef, op CmpOp, o Operand) (CmpOp, Operand)
}

// Walk traverses q in print order: SELECT, WHERE, GROUP BY, HAVING,
// ORDER BY, descending into each subquery at the point where it
// occurs. Every site is passed with the scope (*Query) that owns it.
// A condition node whose sites were rewritten is stored back into its
// parent, so rewrites copy no node they leave unchanged.
func Walk(q *Query, v Visitor) {
	v.query(q)
}

func (v *Visitor) query(q *Query) {
	if q == nil || (v.Scope != nil && !v.Scope(q)) {
		return
	}
	for i := range q.Select {
		v.item(q, &q.Select[i])
	}
	v.expr(q, &q.Where)
	for i := range q.GroupBy {
		v.column(q, &q.GroupBy[i])
	}
	v.expr(q, &q.Having)
	for i := range q.OrderBy {
		v.item(q, &q.OrderBy[i].Item)
	}
}

// expr visits the sites of *e and reports whether it stored a
// rewritten node into *e.
func (v *Visitor) expr(scope *Query, e *Expr) bool {
	changed := false
	switch n := (*e).(type) {
	case Logic:
		l := v.expr(scope, &n.Left)
		r := v.expr(scope, &n.Right)
		if changed = l || r; changed {
			*e = n
		}
	case Not:
		if changed = v.expr(scope, &n.Inner); changed {
			*e = n
		}
	case Comparison:
		c := v.column(scope, &n.Left)
		o := v.operand(scope, n.Left, true, &n.Op, &n.Right)
		if changed = c || o; changed {
			*e = n
		}
	case Between:
		lo, hi := OpGe, OpLe
		c := v.column(scope, &n.Col)
		l := v.operand(scope, n.Col, true, &lo, &n.Lo)
		h := v.operand(scope, n.Col, true, &hi, &n.Hi)
		if changed = c || l || h; changed {
			*e = n
		}
	case InSubquery:
		if changed = v.column(scope, &n.Col); changed {
			*e = n
		}
		v.query(n.Query)
	case Exists:
		v.query(n.Query)
	case HavingCond:
		c := v.item(scope, &n.Item)
		o := v.operand(scope, ColumnRef{}, false, &n.Op, &n.Right)
		if changed = c || o; changed {
			*e = n
		}
	}
	return changed
}

// operand visits one operand site and reports whether it stored a new
// operator or operand. The predicate's column arrives by value and is
// copied to the heap for the callback only when there is one, so walks
// without an Operand callback allocate nothing.
func (v *Visitor) operand(scope *Query, left ColumnRef, hasLeft bool, op *CmpOp, o *Operand) bool {
	changed := false
	if v.Operand != nil {
		var lp *ColumnRef
		if hasLeft {
			l := left
			lp = &l
		}
		newOp, newO := v.Operand(scope, lp, *op, *o)
		if newOp != *op || newO != *o {
			*op, *o = newOp, newO
			changed = true
		}
	}
	switch n := (*o).(type) {
	case ColOperand:
		if v.column(scope, &n.Col) {
			*o = n
			changed = true
		}
	case ScalarSubquery:
		v.query(n.Query)
	}
	return changed
}

func (v *Visitor) item(scope *Query, it *SelectItem) bool {
	return !it.Star && v.column(scope, &it.Col)
}

// column visits one column site and reports whether it stored a new
// column.
func (v *Visitor) column(scope *Query, c *ColumnRef) bool {
	if v.Column == nil {
		return false
	}
	nc := v.Column(scope, *c)
	if nc == *c {
		return false
	}
	*c = nc
	return true
}
