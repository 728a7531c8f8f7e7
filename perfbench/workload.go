package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/patients"
	"repro/internal/spider"
	"repro/internal/sqlast"
)

// Question is one request the load generator sends, with the gold SQL
// its answer is scored against.
type Question struct {
	NL   string
	Gold string
}

// zipfRankSeed fixes which patients cases are hot. Only the draws vary
// with the run seed, so every seed sees the same popularity profile
// and the per-seed figures stay comparable.
const zipfRankSeed = 20200614

// zipfExponent is the skew of the ask-repeat popularity draw.
const zipfExponent = 1.1

// Zipf draws case indexes in [0, n) with a Zipf(zipfExponent)
// popularity over a fixed rank order.
type Zipf struct {
	z    *rand.Zipf
	rank []int
}

// NewZipf returns a sampler over n items seeded by seed.
func NewZipf(n int, seed int64) *Zipf {
	rank := rand.New(rand.NewSource(zipfRankSeed)).Perm(n)
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(rng, zipfExponent, 1, uint64(n-1)), rank: rank}
}

// Next returns the next drawn index.
func (z *Zipf) Next() int { return z.rank[z.z.Uint64()] }

// columnValues lists each column's distinct values in the tenant
// database, sorted, keyed by lower-case column name.
func columnValues(db *engine.Database) (map[string][]engine.Value, error) {
	out := map[string][]engine.Value{}
	for _, t := range db.Schema.Tables {
		for _, c := range t.Columns {
			q, err := sqlast.Parse(fmt.Sprintf("SELECT DISTINCT %s FROM %s", c.Name, t.Name))
			if err != nil {
				return nil, err
			}
			res, err := db.Execute(q)
			if err != nil {
				return nil, err
			}
			vals := make([]engine.Value, 0, len(res.Rows))
			for _, row := range res.Rows {
				vals = append(vals, row[0])
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
			out[strings.ToLower(c.Name)] = vals
		}
	}
	return out, nil
}

// numSlot is one numeric constant of a gold query compared against a
// column.
type numSlot struct {
	col string
	val float64
}

// mapNumbers rebuilds every condition of q and its subqueries, passing
// each column-bound numeric literal through f in rendering order.
func mapNumbers(q *sqlast.Query, f func(col string, v float64) float64) {
	sqlast.WalkQueries(q, func(sub *sqlast.Query) { sub.Where = mapExprNumbers(sub.Where, f) })
}

func mapExprNumbers(e sqlast.Expr, f func(col string, v float64) float64) sqlast.Expr {
	num := func(col string, o sqlast.Operand) sqlast.Operand {
		if v, ok := o.(sqlast.Value); ok && v.IsNum {
			return sqlast.NumValue(f(strings.ToLower(col), v.Num))
		}
		return o
	}
	switch v := e.(type) {
	case sqlast.Logic:
		v.Left = mapExprNumbers(v.Left, f)
		v.Right = mapExprNumbers(v.Right, f)
		return v
	case sqlast.Not:
		v.Inner = mapExprNumbers(v.Inner, f)
		return v
	case sqlast.Comparison:
		v.Right = num(v.Left.Column, v.Right)
		return v
	case sqlast.Between:
		v.Lo = num(v.Col.Column, v.Lo)
		v.Hi = num(v.Col.Column, v.Hi)
		return v
	}
	return e
}

// Redrawer re-draws the numeric constants of patients cases from the
// database's own column values, rewriting the NL and the gold SQL the
// same way, so a replayed question shape carries new bindings.
type Redrawer struct {
	vals map[string][]engine.Value
	rng  *rand.Rand
}

// NewRedrawer seeds a re-drawer over db's column values.
func NewRedrawer(db *engine.Database, seed int64) (*Redrawer, error) {
	vals, err := columnValues(db)
	if err != nil {
		return nil, err
	}
	return &Redrawer{vals: vals, rng: rand.New(rand.NewSource(seed))}, nil
}

// Redraw returns c with fresh numeric constants. A case keeps its
// original constants when a literal cannot be located unambiguously
// in the NL (a number spelled out, or the same number twice).
func (r *Redrawer) Redraw(c patients.Case) (Question, error) {
	orig := Question{NL: c.NL, Gold: c.SQL}
	q, err := sqlast.Parse(c.SQL)
	if err != nil {
		return orig, err
	}
	var slots []numSlot
	mapNumbers(q, func(col string, v float64) float64 {
		slots = append(slots, numSlot{col: col, val: v})
		return v
	})
	if len(slots) == 0 {
		return orig, nil
	}
	nl := strings.Fields(c.NL)
	pos := make([]int, len(slots))
	for i, s := range slots {
		pos[i] = -1
		text := engine.Num(s.val).String()
		for j, tok := range nl {
			if tok == text {
				if pos[i] >= 0 {
					return orig, nil
				}
				pos[i] = j
			}
		}
		if pos[i] < 0 {
			return orig, nil
		}
		for k := 0; k < i; k++ {
			if pos[k] == pos[i] {
				return orig, nil
			}
		}
	}
	draws := make([]float64, len(slots))
	for i, s := range slots {
		vals := r.vals[s.col]
		if len(vals) == 0 || !vals[0].IsNum {
			return orig, nil
		}
		draws[i] = vals[r.rng.Intn(len(vals))].Num
	}
	// BETWEEN bounds arrive as adjacent slots on one column; keep them
	// ordered so the rewritten range stays non-empty.
	for i := 0; i+1 < len(slots); i++ {
		if slots[i].col == slots[i+1].col && slots[i].val <= slots[i+1].val && draws[i] > draws[i+1] {
			draws[i], draws[i+1] = draws[i+1], draws[i]
		}
	}
	for i := range slots {
		nl[pos[i]] = engine.Num(draws[i]).String()
	}
	next := 0
	mapNumbers(q, func(string, float64) float64 { next++; return draws[next-1] })
	return Question{NL: strings.Join(nl, " "), Gold: q.String()}, nil
}

// RepeatStream draws n ask-repeat questions: Zipf-popular patients
// cases with re-drawn numeric constants.
func RepeatStream(db *engine.Database, n int, seed int64) ([]Question, error) {
	cases := patients.Cases()
	z := NewZipf(len(cases), seed)
	rd, err := NewRedrawer(db, seed^0x5eed)
	if err != nil {
		return nil, err
	}
	out := make([]Question, n)
	for i := range out {
		if out[i], err = rd.Redraw(cases[z.Next()]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WarmSet is every patients case once, with its original constants:
// the pass that fills the result cache before ask-repeat is timed.
func WarmSet() []Question {
	cases := patients.Cases()
	out := make([]Question, len(cases))
	for i, c := range cases {
		out[i] = Question{NL: c.NL, Gold: c.SQL}
	}
	return out
}

// NovelStream draws n ask-novel questions: spider.Workload questions
// over the tenant schema with every @TABLE.COL placeholder
// instantiated from the database, in the NL and the gold SQL alike.
func NovelStream(db *engine.Database, n int, seed int64) ([]Question, error) {
	vals, err := columnValues(db)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0dd5))
	qs := spider.Workload(db.Schema, n, seed)
	out := make([]Question, len(qs))
	for i, q := range qs {
		if out[i], err = instantiate(q, vals, rng); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// instantiate binds each placeholder occurrence to a database value:
// the k-th "@table.col" of the NL and the k-th "@TABLE.COL" of the SQL
// are the same constant. Repeated placeholders (an OR over one column)
// draw distinct values.
func instantiate(q spider.Question, vals map[string][]engine.Value, rng *rand.Rand) (Question, error) {
	nl := strings.Fields(q.NL)
	sqlToks := strings.Fields(q.SQL)
	used := map[string]map[int]bool{}
	bound := map[string][]engine.Value{}
	draw := func(ph string) (engine.Value, error) {
		_, col, ok := strings.Cut(strings.TrimPrefix(ph, "@"), ".")
		col = strings.ToLower(col)
		vs := vals[col]
		if !ok || len(vs) == 0 {
			return engine.Value{}, fmt.Errorf("placeholder %s names no column with values", ph)
		}
		if used[col] == nil {
			used[col] = map[int]bool{}
		}
		if len(used[col]) == len(vs) {
			return engine.Value{}, fmt.Errorf("placeholder %s: column %s has too few distinct values", ph, col)
		}
		i := rng.Intn(len(vs))
		for used[col][i] {
			i = (i + 1) % len(vs)
		}
		used[col][i] = true
		return vs[i], nil
	}
	for i, tok := range nl {
		if !strings.HasPrefix(tok, "@") {
			continue
		}
		v, err := draw(tok)
		if err != nil {
			return Question{}, err
		}
		key := strings.ToUpper(tok)
		bound[key] = append(bound[key], v)
		nl[i] = v.String()
	}
	seen := map[string]int{}
	for i, tok := range sqlToks {
		key := strings.TrimRight(tok, ",)")
		if !strings.HasPrefix(key, "@") {
			continue
		}
		k := seen[key]
		seen[key]++
		if k >= len(bound[key]) {
			return Question{}, fmt.Errorf("gold SQL %q binds %s more often than its NL", q.SQL, key)
		}
		v := bound[key][k]
		lit := v.String()
		if !v.IsNum {
			lit = "'" + strings.ReplaceAll(lit, "'", "''") + "'"
		}
		sqlToks[i] = lit + tok[len(key):]
	}
	return Question{NL: strings.Join(nl, " "), Gold: strings.Join(sqlToks, " ")}, nil
}
