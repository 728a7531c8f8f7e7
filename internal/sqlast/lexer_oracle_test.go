package sqlast

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// lexRunes is lex as it was before the byte-offset scan: the same
// rules over []rune(input), re-encoding every token. It is the oracle
// of the differential fuzz target.
func lexRunes(input string) ([]token, error) {
	var toks []token
	runes := []rune(input)
	i := 0
	n := len(runes)
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '@':
			start := i
			i++
			if i >= n || !isIdentStart(runes[i]) {
				return nil, &lexError{pos: start, msg: "'@' must be followed by a name"}
			}
			for i < n && isIdentPart(runes[i]) {
				i++
			}
			for i+1 < n && runes[i] == '.' && isIdentStart(runes[i+1]) {
				i++
				for i < n && isIdentPart(runes[i]) {
					i++
				}
			}
			toks = append(toks, token{kind: tokPlaceholder, text: string(runes[start+1 : i]), pos: start})
		case isIdentStart(r):
			start := i
			for i < n && isIdentPart(runes[i]) {
				i++
			}
			toks = append(toks, token{kind: tokIdent, text: string(runes[start:i]), pos: start})
		case unicode.IsDigit(r) || (r == '.' && i+1 < n && unicode.IsDigit(runes[i+1])):
			start := i
			for i < n && (unicode.IsDigit(runes[i]) || runes[i] == '.') {
				i++
			}
			text := string(runes[start:i])
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, &lexError{pos: start, msg: "bad number " + text}
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: f, pos: start})
		case r == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if runes[i] == '\'' {
					if i+1 < n && runes[i+1] == '\'' {
						sb.WriteRune('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteRune(runes[i])
				i++
			}
			if !closed {
				return nil, &lexError{pos: start, msg: "unterminated string"}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case r == '<' || r == '>' || r == '!':
			start := i
			i++
			if i < n && (runes[i] == '=' || (r == '<' && runes[i] == '>')) {
				i++
			}
			toks = append(toks, token{kind: tokSymbol, text: string(runes[start:i]), pos: start})
		case strings.ContainsRune("=,().*;", r):
			toks = append(toks, token{kind: tokSymbol, text: string(r), pos: i})
			i++
		default:
			return nil, &lexError{pos: i, msg: fmt.Sprintf("unexpected character %q", r)}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

// lexSeeds covers every branch of the lexer, with non-ASCII text before
// tokens and errors so rune and byte positions differ, and invalid
// UTF-8 inside and outside string literals.
var lexSeeds = []string{
	"SELECT a, b FROM t WHERE x = 1 AND y != 'two' OR z <= 3.5 AND w <> .5",
	"SELECT t.a FROM @JOIN WHERE u.b = @U.B AND c = @DOCTOR.NAME. ORDER BY t.c DESC LIMIT 5;",
	"SELECT a FROM t WHERE s = 'it''s' AND n >= 1.2.3",
	"SELECT 'ünïcödé ''日本''' FROM straße WHERE ΑΒΓ = ٣٤",
	"'日本 unterminated", "日本 @", "日本 @1", "日本 #", "é 1.2.3", "\xff", "'a\xffb\xe2\x80'", "x \xe2\x80 y",
	"@a.", "@a.1", "a!b", "<>=!", "",
}

// requireLexEqual asserts that lex and the rune oracle agree on input:
// the same tokens (kind, text, number bits, rune position) or the same
// error.
func requireLexEqual(t *testing.T, input string) {
	t.Helper()
	got, gerr := lex(input)
	want, werr := lexRunes(input)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("lex(%q) error = %v, rune oracle %v", input, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("lex(%q) = %d tokens, rune oracle %d", input, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.kind != w.kind || g.text != w.text || g.pos != w.pos || math.Float64bits(g.num) != math.Float64bits(w.num) {
			t.Fatalf("lex(%q) token %d = %+v, rune oracle %+v", input, i, g, w)
		}
	}
}

// TestLexMatchesRunesOracle: the byte-offset lexer agrees with the
// rune-based oracle on the fuzz seeds.
func TestLexMatchesRunesOracle(t *testing.T) {
	for _, s := range lexSeeds {
		requireLexEqual(t, s)
	}
}

// FuzzLexDifferential: lex and the rune-based oracle agree on arbitrary
// input, invalid UTF-8 included. Explore with
// `go test -fuzz=FuzzLexDifferential ./internal/sqlast`.
func FuzzLexDifferential(f *testing.F) {
	for _, s := range lexSeeds {
		f.Add(s)
	}
	f.Fuzz(requireLexEqual)
}
