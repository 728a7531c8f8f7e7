package engine

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlast"
)

// testDB builds a small, hand-checkable hospital database.
func testDB(t *testing.T) *Database {
	t.Helper()
	s := &schema.Schema{
		Name: "hospital",
		Tables: []*schema.Table{
			{Name: "patients", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "name", Type: schema.Text},
				{Name: "age", Type: schema.Number},
				{Name: "diagnosis", Type: schema.Text},
			}},
			{Name: "visits", Columns: []*schema.Column{
				{Name: "id", Type: schema.Number, PrimaryKey: true},
				{Name: "patient_id", Type: schema.Number},
				{Name: "cost", Type: schema.Number},
			}},
		},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "visits", FromColumn: "patient_id", ToTable: "patients", ToColumn: "id"},
		},
	}
	db := NewDatabase(s)
	rows := []Row{
		{Num(1), Str("alice"), Num(80), Str("influenza")},
		{Num(2), Str("bob"), Num(40), Str("diabetes")},
		{Num(3), Str("carol"), Num(60), Str("influenza")},
		{Num(4), Str("dave"), Num(20), Str("asthma")},
	}
	for _, r := range rows {
		if err := db.Insert("patients", r); err != nil {
			t.Fatal(err)
		}
	}
	visits := []Row{
		{Num(1), Num(1), Num(100)},
		{Num(2), Num(1), Num(300)},
		{Num(3), Num(2), Num(50)},
	}
	for _, r := range visits {
		if err := db.Insert("visits", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func exec(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Execute(sqlast.MustParse(sql))
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func execErr(t *testing.T, db *Database, sql string) error {
	t.Helper()
	_, err := db.Execute(sqlast.MustParse(sql))
	if err == nil {
		t.Fatalf("Execute(%q) should fail", sql)
	}
	return err
}

func oneNum(t *testing.T, res *Result) float64 {
	t.Helper()
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("expected 1x1 result, got %v", res.Rows)
	}
	return res.Rows[0][0].Num
}

func TestSelectStar(t *testing.T) {
	res := exec(t, testDB(t), "SELECT * FROM patients")
	if len(res.Rows) != 4 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
}

func TestFilterComparisons(t *testing.T) {
	db := testDB(t)
	cases := map[string]int{
		"SELECT name FROM patients WHERE age = 80":                             1,
		"SELECT name FROM patients WHERE age != 80":                            3,
		"SELECT name FROM patients WHERE age > 40":                             2,
		"SELECT name FROM patients WHERE age >= 40":                            3,
		"SELECT name FROM patients WHERE age < 40":                             1,
		"SELECT name FROM patients WHERE age <= 40":                            2,
		"SELECT name FROM patients WHERE diagnosis = 'influenza'":              2,
		"SELECT name FROM patients WHERE diagnosis = 'INFLUENZA'":              2, // case-insensitive text
		"SELECT name FROM patients WHERE age BETWEEN 30 AND 70":                2,
		"SELECT name FROM patients WHERE name LIKE '%a%'":                      3, // alice carol dave
		"SELECT name FROM patients WHERE name LIKE 'a%'":                       1,
		"SELECT name FROM patients WHERE name LIKE '_ob'":                      1,
		"SELECT name FROM patients WHERE NOT (age > 40)":                       2,
		"SELECT name FROM patients WHERE age > 40 AND diagnosis = 'influenza'": 2,
		"SELECT name FROM patients WHERE age = 20 OR age = 40":                 2,
	}
	for sql, want := range cases {
		if got := len(exec(t, db, sql).Rows); got != want {
			t.Errorf("%q -> %d rows, want %d", sql, got, want)
		}
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	cases := map[string]float64{
		"SELECT COUNT(*) FROM patients":                               4,
		"SELECT COUNT(*) FROM patients WHERE age > 100":               0,
		"SELECT COUNT(DISTINCT diagnosis) FROM patients":              3,
		"SELECT AVG(age) FROM patients":                               50,
		"SELECT SUM(age) FROM patients":                               200,
		"SELECT MIN(age) FROM patients":                               20,
		"SELECT MAX(age) FROM patients":                               80,
		"SELECT AVG(age) FROM patients WHERE diagnosis = 'influenza'": 70,
	}
	for sql, want := range cases {
		if got := oneNum(t, exec(t, db, sql)); got != want {
			t.Errorf("%q = %v, want %v", sql, got, want)
		}
	}
}

func TestAggregateEmptyGroup(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT MAX(age) FROM patients WHERE age > 100")
	if len(res.Rows) != 1 || !res.Rows[0][0].Null {
		t.Fatalf("MAX over empty set should be NULL, got %v", res.Rows)
	}
	res2 := exec(t, db, "SELECT SUM(age) FROM patients WHERE age > 100")
	if oneNum(t, res2) != 0 {
		t.Fatalf("SUM over empty set should be 0")
	}
}

func TestGroupBy(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	counts := map[string]float64{}
	for _, r := range res.Rows {
		counts[r[0].Str] = r[1].Num
	}
	if counts["influenza"] != 2 || counts["diabetes"] != 1 || counts["asthma"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT diagnosis FROM patients GROUP BY diagnosis HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "influenza" {
		t.Fatalf("having result = %v", res.Rows)
	}
	res2 := exec(t, db, "SELECT diagnosis FROM patients GROUP BY diagnosis HAVING AVG(age) >= 70")
	if len(res2.Rows) != 1 || res2.Rows[0][0].Str != "influenza" {
		t.Fatalf("having avg result = %v", res2.Rows)
	}
}

// A column on the right of a HAVING comparison takes its group's value
// when it is a GROUP BY key, and is a grouping error otherwise, never a
// panic on the group's missing row.
func TestHavingColumnOperand(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT patient_id FROM visits GROUP BY patient_id HAVING MAX(cost) > patient_id")
	if len(res.Rows) != 2 {
		t.Fatalf("grouped-key RHS rows = %v", res.Rows)
	}
	err := execErr(t, db, "SELECT patient_id FROM visits GROUP BY patient_id HAVING MAX(cost) > cost")
	if ErrKindOf(err) != ErrGrouping {
		t.Fatalf("ungrouped RHS error = %v, want a grouping error", err)
	}
}

func TestOrderLimit(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT name FROM patients ORDER BY age DESC")
	got := []string{}
	for _, r := range res.Rows {
		got = append(got, r[0].Str)
	}
	want := "alice,carol,bob,dave"
	if strings.Join(got, ",") != want {
		t.Fatalf("order = %v", got)
	}
	res2 := exec(t, db, "SELECT name FROM patients ORDER BY age ASC LIMIT 2")
	if len(res2.Rows) != 2 || res2.Rows[0][0].Str != "dave" || res2.Rows[1][0].Str != "bob" {
		t.Fatalf("limit result = %v", res2.Rows)
	}
}

func TestOrderByAggregateInGroup(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis ORDER BY COUNT(*) DESC LIMIT 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "influenza" {
		t.Fatalf("top group = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT DISTINCT diagnosis FROM patients")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct = %v", res.Rows)
	}
}

func TestJoinImplicit(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT patients.name, visits.cost FROM patients, visits WHERE patients.id = visits.patient_id")
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	res2 := exec(t, db, "SELECT SUM(visits.cost) FROM patients, visits WHERE patients.id = visits.patient_id AND patients.name = 'alice'")
	if oneNum(t, res2) != 400 {
		t.Fatalf("alice cost sum wrong")
	}
}

func TestSubqueries(t *testing.T) {
	db := testDB(t)
	res := exec(t, db, "SELECT name FROM patients WHERE age = (SELECT MAX(age) FROM patients)")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "alice" {
		t.Fatalf("scalar subquery = %v", res.Rows)
	}
	res2 := exec(t, db, "SELECT name FROM patients WHERE age > (SELECT AVG(age) FROM patients)")
	if len(res2.Rows) != 2 {
		t.Fatalf("above-average = %v", res2.Rows)
	}
	res3 := exec(t, db, "SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE cost > 60)")
	if len(res3.Rows) != 1 || res3.Rows[0][0].Str != "alice" {
		t.Fatalf("IN subquery = %v", res3.Rows)
	}
	res4 := exec(t, db, "SELECT name FROM patients WHERE id NOT IN (SELECT patient_id FROM visits WHERE cost > 60)")
	if len(res4.Rows) != 3 {
		t.Fatalf("NOT IN subquery = %v", res4.Rows)
	}
	res5 := exec(t, db, "SELECT name FROM patients WHERE EXISTS (SELECT * FROM visits WHERE cost > 250)")
	if len(res5.Rows) != 4 {
		t.Fatalf("EXISTS true should keep all rows, got %v", res5.Rows)
	}
	res6 := exec(t, db, "SELECT name FROM patients WHERE NOT EXISTS (SELECT * FROM visits WHERE cost > 1000)")
	if len(res6.Rows) != 4 {
		t.Fatalf("NOT EXISTS false predicate, got %v", res6.Rows)
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	// Unknown table / column.
	execErr(t, db, "SELECT a FROM nope")
	execErr(t, db, "SELECT nope FROM patients")
	// Ambiguous column across join.
	execErr(t, db, "SELECT id FROM patients, visits WHERE patients.id = visits.patient_id")
	// Unresolved placeholders and @JOIN.
	execErr(t, db, "SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	execErr(t, db, "SELECT patients.name FROM @JOIN WHERE visits.cost > 1")
	// Correlated subquery (outer column inside inner query).
	execErr(t, db, "SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE visits.cost > patients.age)")
	// Non-grouped column in aggregate query.
	execErr(t, db, "SELECT name, COUNT(*) FROM patients")
	// SUM over text.
	execErr(t, db, "SELECT SUM(name) FROM patients")
	// Multi-column IN subquery.
	execErr(t, db, "SELECT name FROM patients WHERE id IN (SELECT id, cost FROM visits)")
}

func TestInsertErrors(t *testing.T) {
	db := testDB(t)
	if err := db.Insert("nope", Row{Num(1)}); err == nil {
		t.Fatal("insert into unknown table should fail")
	}
	if err := db.Insert("patients", Row{Num(1)}); err == nil {
		t.Fatal("short row should fail")
	}
}

func TestEqualResults(t *testing.T) {
	a := &Result{Columns: []string{"x"}, Rows: []Row{{Num(1)}, {Num(2)}}}
	b := &Result{Columns: []string{"x"}, Rows: []Row{{Num(2)}, {Num(1)}}}
	if !EqualResults(a, b) {
		t.Fatal("row order should not matter")
	}
	c := &Result{Columns: []string{"x"}, Rows: []Row{{Num(1)}, {Num(3)}}}
	if EqualResults(a, c) {
		t.Fatal("different multisets must differ")
	}
	d := &Result{Columns: []string{"x"}, Rows: []Row{{Num(1)}}}
	if EqualResults(a, d) {
		t.Fatal("different cardinalities must differ")
	}
	e := &Result{Columns: []string{"x"}, Rows: []Row{{Num(1.0000000001)}, {Num(2)}}}
	if !EqualResults(a, e) {
		t.Fatal("tiny float jitter should be tolerated")
	}
}

func TestResultString(t *testing.T) {
	res := exec(t, testDB(t), "SELECT name, age FROM patients WHERE age = 80")
	out := res.String()
	for _, want := range []string{"name", "age", "alice", "80"} {
		if !strings.Contains(out, want) {
			t.Fatalf("result table missing %q:\n%s", want, out)
		}
	}
}

func TestValueSemantics(t *testing.T) {
	if !Num(3).Equal(Num(3)) || Num(3).Equal(Num(4)) {
		t.Fatal("numeric equality broken")
	}
	if !Str("a").Less(Str("b")) || Str("b").Less(Str("a")) {
		t.Fatal("string ordering broken")
	}
	if !Null.Equal(Null) || Null.Equal(Num(0)) {
		t.Fatal("null semantics broken")
	}
	if !Null.Less(Num(-1e18)) {
		t.Fatal("null sorts first")
	}
	if Num(2.5).String() != "2.5" || Num(3).String() != "3" || Str("x").String() != "x" || Null.String() != "NULL" {
		t.Fatal("value rendering broken")
	}
}
