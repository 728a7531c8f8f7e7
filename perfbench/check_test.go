package main

import (
	"testing"

	"repro/internal/patients"
	"repro/internal/sqlast"
)

func TestHashRowsMatchesHashResult(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlast.Parse("SELECT name , age FROM patients WHERE age > 50")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("want several rows, got %d", len(res.Rows))
	}
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		for _, v := range r {
			rows[i] = append(rows[i], v.String())
		}
	}
	if hashRows(res.Columns, rows) != hashResult(res) {
		t.Fatal("the digest of the sent rows differs from the digest of the same executed result")
	}
	rows[0][0] += "x"
	if hashRows(res.Columns, rows) == hashResult(res) {
		t.Fatal("a changed cell kept the digest")
	}
	// Cells are length-prefixed: moving text between cells changes it.
	a := hashRows([]string{"c"}, [][]string{{"ab", "c"}})
	b := hashRows([]string{"c"}, [][]string{{"a", "bc"}})
	if a == b {
		t.Fatal("re-split cells share a digest")
	}
}

func TestAnswerTable(t *testing.T) {
	tab := answerTable{}
	q := Question{NL: "how many patients are there"}
	ans := func(tier, sql string) answer { return answer{Q: q, Tier: tier, SQL: sql} }
	if err := tab.add(ans("seq2seq", "SELECT COUNT ( * ) FROM patients")); err != nil {
		t.Fatal(err)
	}
	if err := tab.add(ans("seq2seq", "SELECT COUNT ( * ) FROM patients")); err != nil {
		t.Fatalf("the same answer again: %v", err)
	}
	if err := tab.add(ans("template-nn", "SELECT name FROM patients")); err != nil {
		t.Fatalf("another tier may answer differently: %v", err)
	}
	if err := tab.add(ans("seq2seq", "SELECT name FROM patients")); err == nil {
		t.Fatal("a different answer from the same tier was accepted")
	}

	dir := t.TempDir()
	if err := mergeAnswers(dir, tab); err != nil {
		t.Fatal(err)
	}
	same := answerTable{}
	if err := same.add(ans("seq2seq", "SELECT COUNT ( * ) FROM patients")); err != nil {
		t.Fatal(err)
	}
	if err := mergeAnswers(dir, same); err != nil {
		t.Fatalf("an agreeing later run: %v", err)
	}
	other := answerTable{}
	if err := other.add(ans("template-nn", "SELECT COUNT ( * ) FROM patients")); err != nil {
		t.Fatal(err)
	}
	if err := mergeAnswers(dir, other); err == nil {
		t.Fatal("a later run's different answer from the same tier was accepted")
	}
}
