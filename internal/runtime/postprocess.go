package runtime

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlast"
)

// PostProcess applies the paper's post-processing phase (§4.2, §5.1)
// to a model-produced query:
//
//  1. placeholders are replaced by the constants recorded during
//     anonymization (in order of appearance; LIKE operands gain %
//     wildcards);
//  2. the @JOIN placeholder is resolved: the tables referenced by the
//     query's qualified columns are connected along the shortest join
//     path and the join predicates are added to WHERE;
//  3. FROM repair: tables required by referenced columns but missing
//     from FROM are added (again via shortest join paths), and a FROM
//     table that matches none of the used columns is replaced.
func PostProcess(q *sqlast.Query, s *schema.Schema, bindings []Binding) (*sqlast.Query, error) {
	out := q.Clone()
	if err := restore(out, bindings); err != nil {
		return nil, err
	}
	if err := repairFrom(out, s); err != nil {
		return nil, err
	}
	return out, nil
}

// restorer replaces placeholders with recorded constants. Bindings for
// a placeholder name are consumed in order; if a name was never
// recorded (the model hallucinated a different column), the restorer
// falls back to any unconsumed binding, preferring one whose column
// name part matches.
type restorer struct {
	bindings []Binding
	used     []bool
}

func (r *restorer) take(name string) (sqlast.Value, bool) {
	if r.used == nil {
		r.used = make([]bool, len(r.bindings))
	}
	name = strings.ToUpper(name)
	// Exact placeholder name.
	for i, b := range r.bindings {
		if !r.used[i] && strings.ToUpper(b.Placeholder) == name {
			r.used[i] = true
			return b.Value, true
		}
	}
	// Same column part (e.g. model wrote @DOCTORS.NAME for
	// @PATIENTS.NAME).
	col := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		col = name[i+1:]
	}
	for i, b := range r.bindings {
		if r.used[i] {
			continue
		}
		bcol := strings.ToUpper(b.Placeholder)
		if j := strings.LastIndexByte(bcol, '.'); j >= 0 {
			bcol = bcol[j+1:]
		}
		if bcol == col {
			r.used[i] = true
			return r.bindings[i].Value, true
		}
	}
	// Any unconsumed binding.
	for i := range r.bindings {
		if !r.used[i] {
			r.used[i] = true
			return r.bindings[i].Value, true
		}
	}
	return sqlast.Value{}, false
}

// restore replaces the query's placeholder operands, in print order,
// with their recorded constants (LIKE operands gain % wildcards).
func restore(q *sqlast.Query, bindings []Binding) error {
	r := &restorer{bindings: bindings}
	var err error
	sqlast.Walk(q, sqlast.Visitor{Operand: func(_ *sqlast.Query, left *sqlast.ColumnRef, op sqlast.CmpOp, o sqlast.Operand) (sqlast.CmpOp, sqlast.Operand) {
		p, ok := o.(sqlast.Placeholder)
		if !ok || err != nil || strings.EqualFold(p.Name, "JOIN") {
			return op, o
		}
		val, ok := r.take(p.Name)
		if !ok {
			err = fmt.Errorf("runtime: no constant recorded for placeholder @%s", p.Name)
			return op, o
		}
		if left != nil && op == sqlast.OpLike && !val.IsNum {
			val = sqlast.StrValue("%" + val.Str + "%")
		}
		return op, val
	}})
	return err
}

// repairFrom resolves @JOIN and fixes table/column mismatches on the
// outer query and every subquery.
func repairFrom(q *sqlast.Query, s *schema.Schema) error {
	var firstErr error
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		if err := repairOne(sub, s); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

func repairOne(q *sqlast.Query, s *schema.Schema) error {
	needed := neededTables(q, s)
	if q.From.JoinPlaceholder {
		if len(needed) == 0 {
			return fmt.Errorf("runtime: @JOIN with no resolvable column references in %q", q)
		}
		return connectTables(q, s, needed)
	}
	// Drop FROM tables that are unknown to the schema (model noise).
	var tables []string
	for _, t := range q.From.Tables {
		if s.Table(t) != nil {
			tables = append(tables, t)
		}
	}
	q.From.Tables = tables
	// If no valid FROM table remains, adopt the needed set.
	if len(q.From.Tables) == 0 {
		if len(needed) == 0 {
			return fmt.Errorf("runtime: cannot infer FROM tables for %q", q)
		}
		return connectTables(q, s, needed)
	}
	// Add tables required by columns but missing from FROM.
	missing := false
	for _, n := range needed {
		if !containsFold(q.From.Tables, n) {
			missing = true
			break
		}
	}
	if !missing {
		return nil
	}
	all := append(append([]string{}, q.From.Tables...), needed...)
	return connectTables(q, s, dedupFold(all))
}

// neededTables collects the tables implied by the query's column
// references: qualified names directly, unqualified ones through
// unique containment (columns appearing in several tables don't force
// a table).
func neededTables(q *sqlast.Query, s *schema.Schema) []string {
	var out []string
	add := func(t string) {
		if t != "" && s.Table(t) != nil && !containsFold(out, t) {
			out = append(out, s.Table(t).Name)
		}
	}
	// The scope's own columns only: subqueries repair their own FROM.
	sqlast.Walk(q, sqlast.Visitor{
		Scope: func(sub *sqlast.Query) bool { return sub == q },
		Column: func(_ *sqlast.Query, c sqlast.ColumnRef) sqlast.ColumnRef {
			switch {
			case c.Column == "" || c.Column == "*":
			case c.Table != "":
				add(c.Table)
			default:
				if owners := s.TablesWithColumn(c.Column); len(owners) == 1 {
					add(owners[0])
				}
			}
			return c
		},
	})
	return out
}

// connectTables sets FROM to the needed tables plus any intermediate
// tables on the shortest join paths, and appends the join predicates
// to WHERE.
func connectTables(q *sqlast.Query, s *schema.Schema, needed []string) error {
	edges := s.JoinPathAll(needed)
	if edges == nil {
		return fmt.Errorf("runtime: tables %v are not connected in schema %s", needed, s.Name)
	}
	tables := append([]string{}, needed...)
	var conds []sqlast.Expr
	for _, e := range edges {
		if !containsFold(tables, e.LeftTable) {
			tables = append(tables, e.LeftTable)
		}
		if !containsFold(tables, e.RightTable) {
			tables = append(tables, e.RightTable)
		}
		conds = append(conds, sqlast.Comparison{
			Left:  sqlast.ColumnRef{Table: e.LeftTable, Column: e.LeftColumn},
			Op:    sqlast.OpEq,
			Right: sqlast.ColOperand{Col: sqlast.ColumnRef{Table: e.RightTable, Column: e.RightColumn}},
		})
	}
	q.From = sqlast.From{Tables: tables}
	if len(conds) > 0 {
		q.Where = sqlast.AndAll(append(conds, exprOrNil(q.Where)...))
	}
	// Qualify ambiguous unqualified columns now that FROM may span
	// multiple tables.
	if len(tables) > 1 {
		qualifyColumns(q, s, tables)
	}
	return nil
}

func exprOrNil(e sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return nil
	}
	return []sqlast.Expr{e}
}

// qualifyColumns rewrites unqualified column references to their
// unique owning table among the FROM tables, avoiding ambiguity errors
// in the engine.
func qualifyColumns(q *sqlast.Query, s *schema.Schema, tables []string) {
	// The first FROM owner wins on ambiguity: scan in FROM order and
	// stop at the first match (deterministic, usually the head table).
	owner := func(c sqlast.ColumnRef) sqlast.ColumnRef {
		if c.Table != "" || c.Column == "" || c.Column == "*" {
			return c
		}
		for _, t := range tables {
			if s.Column(t, c.Column) != nil {
				return sqlast.ColumnRef{Table: s.Table(t).Name, Column: c.Column}
			}
		}
		return c
	}
	sqlast.Walk(q, sqlast.Visitor{
		Scope:  func(sub *sqlast.Query) bool { return sub == q },
		Column: func(_ *sqlast.Query, c sqlast.ColumnRef) sqlast.ColumnRef { return owner(c) },
	})
}

func containsFold(list []string, x string) bool {
	for _, v := range list {
		if strings.EqualFold(v, x) {
			return true
		}
	}
	return false
}

func dedupFold(list []string) []string {
	var out []string
	for _, v := range list {
		if !containsFold(out, v) {
			out = append(out, v)
		}
	}
	return out
}
