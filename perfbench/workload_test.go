package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/patients"
	"repro/internal/sqlast"
)

func TestZipfDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		z := NewZipf(399, seed)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different Zipf sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 drew the same Zipf sequence")
	}
	counts := map[int]int{}
	for _, i := range a {
		if i < 0 || i >= 399 {
			t.Fatalf("draw %d out of range", i)
		}
		counts[i]++
	}
	// Zipf-skewed: the hottest case far outdraws a uniform share.
	hottest := 0
	for _, n := range counts {
		hottest = max(hottest, n)
	}
	if hottest < 10*len(a)/399 {
		t.Fatalf("hottest case drawn %d of %d times; want a skewed draw", hottest, len(a))
	}
}

func TestRedrawDeterministicAndExecutable(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	a, err := RepeatStream(db, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RepeatStream(db, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed re-drew different constants")
	}
	orig := map[string]string{}
	for _, c := range patients.Cases() {
		orig[c.NL] = c.SQL
	}
	redrawn := 0
	for _, q := range a {
		if _, same := orig[q.NL]; !same {
			redrawn++
		}
		parsed, err := sqlast.Parse(q.Gold)
		if err != nil {
			t.Fatalf("re-drawn gold %q does not parse: %v", q.Gold, err)
		}
		if _, err := db.Execute(parsed); err != nil {
			t.Fatalf("re-drawn gold %q does not execute: %v", q.Gold, err)
		}
	}
	if redrawn == 0 {
		t.Fatal("no question had its constants re-drawn")
	}
}

func TestRedrawRewritesNLAndSQLTogether(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewRedrawer(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := patients.Case{NL: "show me all patients where age is 80", SQL: "SELECT * FROM patients WHERE age = 80"}
	for i := 0; i < 20; i++ {
		q, err := rd.Redraw(c)
		if err != nil {
			t.Fatal(err)
		}
		num := strings.Fields(q.NL)[len(strings.Fields(q.NL))-1]
		if want := "SELECT * FROM patients WHERE age = " + num; q.Gold != want {
			t.Fatalf("NL %q paired with gold %q, want %q", q.NL, q.Gold, want)
		}
	}
}

func TestNovelStreamGoldExecutes(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 42} {
		qs, err := NovelStream(db, 1500, seed)
		if err != nil {
			t.Fatal(err)
		}
		again, err := NovelStream(db, 1500, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(qs, again) {
			t.Fatalf("seed %d: instantiation is not deterministic", seed)
		}
		for _, q := range qs {
			if strings.Contains(q.NL, "@") || strings.Contains(q.Gold, "@") {
				t.Fatalf("placeholder left in %q / %q", q.NL, q.Gold)
			}
			parsed, err := sqlast.Parse(q.Gold)
			if err != nil {
				t.Fatalf("gold %q does not parse: %v", q.Gold, err)
			}
			if _, err := db.Execute(parsed); err != nil {
				t.Fatalf("gold %q does not execute: %v", q.Gold, err)
			}
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := Schedule(500, 100, 5), Schedule(500, 100, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed scheduled different arrivals")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
}
