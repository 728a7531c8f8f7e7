package sqlast_test

import (
	"fmt"

	"repro/internal/sqlast"
)

func ExampleParse() {
	q, err := sqlast.Parse("select name from patients where age = @PATIENTS.AGE")
	if err != nil {
		panic(err)
	}
	fmt.Println(q)
	// Output: SELECT name FROM patients WHERE age = @PATIENTS.AGE
}

func ExampleQuery_Pattern() {
	a := sqlast.MustParse("SELECT name FROM patients WHERE age = 80")
	b := sqlast.MustParse("SELECT title FROM books WHERE pages = @BOOKS.PAGES")
	fmt.Println(a.Pattern())
	fmt.Println(a.Pattern() == b.Pattern())
	// Output:
	// SELECT C FROM T WHERE C = @V
	// true
}

func ExampleQuery_Canonical() {
	a := sqlast.MustParse("SELECT a FROM t WHERE x = 1 AND y = 2")
	b := sqlast.MustParse("select A from T where Y = 2 and X = 1")
	fmt.Println(sqlast.EqualCanonical(a, b))
	// Output: true
}

func ExampleQueryDifficulty() {
	q := sqlast.MustParse("SELECT name FROM mountains WHERE height = (SELECT MAX(height) FROM mountains WHERE state = @STATES.NAME)")
	fmt.Println(sqlast.QueryDifficulty(q))
	// Output: Very Hard
}

// Walk visits sites in print order and enters each subquery where it
// occurs, BETWEEN bounds and HAVING right-hand sides included.
func ExampleWalk() {
	q := sqlast.MustParse("SELECT a FROM t WHERE b BETWEEN (SELECT MIN(c) FROM u WHERE d = @U.D) AND e GROUP BY a HAVING COUNT(*) > f")
	sqlast.Walk(q, sqlast.Visitor{
		Scope: func(s *sqlast.Query) bool {
			fmt.Println("scope", s.From)
			return true
		},
		Column: func(s *sqlast.Query, c sqlast.ColumnRef) sqlast.ColumnRef {
			fmt.Println("  column", c, "in", s.From)
			return c
		},
		Operand: func(s *sqlast.Query, left *sqlast.ColumnRef, op sqlast.CmpOp, o sqlast.Operand) (sqlast.CmpOp, sqlast.Operand) {
			fmt.Println("  operand", o, "left", left != nil, op)
			return op, o
		},
	})
	// Output:
	// scope t
	//   column a in t
	//   column b in t
	//   operand (SELECT MIN(c) FROM u WHERE d = @U.D) left true >=
	// scope u
	//   column c in u
	//   column d in u
	//   operand @U.D left true =
	//   operand e left true <=
	//   column e in t
	//   column a in t
	//   operand f left false >
	//   column f in t
}
