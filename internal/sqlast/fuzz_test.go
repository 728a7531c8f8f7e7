package sqlast

import (
	"testing"
)

// parseSeeds is the seed corpus of FuzzParse and FuzzRewriteDifferential.
var parseSeeds = []string{
	"SELECT * FROM t",
	"SELECT a, b FROM t WHERE x = 1 AND y != 'two' OR z < 3.5",
	"SELECT COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 2",
	"SELECT t.a FROM @JOIN WHERE u.b = @U.B ORDER BY t.c DESC LIMIT 5",
	"SELECT a FROM t WHERE n = (SELECT MAX(n) FROM t WHERE s LIKE '%x%')",
	"SELECT a FROM t WHERE k NOT IN (SELECT f FROM u) AND m BETWEEN 1 AND 2",
	"select a from t where not exists (select * from u);",
	"SELECT",
	"'unterminated",
	"@@@",
	"SELECT a FROM t WHERE s = 'it''s'",
	"SELECT ( FROM",
}

// FuzzParse asserts the parser never panics and that anything it
// accepts round-trips through the printer to a canonically equal
// query. Run with `go test -fuzz=FuzzParse ./internal/sqlast` to
// explore; the seed corpus runs in every ordinary `go test`.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", input, printed, err)
		}
		if q.Canonical() != q2.Canonical() {
			t.Fatalf("canonical drift: %q -> %q vs %q", input, q.Canonical(), q2.Canonical())
		}
		// Token linearization must also round-trip.
		q3, err := ParseTokens(q.Tokens())
		if err != nil {
			t.Fatalf("token roundtrip of %q failed: %v", printed, err)
		}
		if q.Canonical() != q3.Canonical() {
			t.Fatalf("token canonical drift for %q", printed)
		}
	})
}

// FuzzLex asserts the lexer is total (never panics) on arbitrary
// input.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"SELECT 1", "@", "'", "a.b.c", "<>=!", "日本語 SELECT"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := lex(input)
		if err != nil {
			return
		}
		if len(toks) == 0 {
			t.Fatal("lex returned no tokens, not even EOF")
		}
		if toks[len(toks)-1].kind != tokEOF {
			t.Fatal("token stream not EOF-terminated")
		}
	})
}
