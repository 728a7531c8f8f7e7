package sqlast

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPlaceholder // @NAME or @TABLE.COL
	tokSymbol      // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // identifier (original case), symbol, number text, or string contents
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return "'" + t.text + "'"
	default:
		return t.text
	}
}

// lexError reports a lexing failure with byte position.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql lex error at %d: %s", e.pos, e.msg)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isNumberPart(r rune) bool {
	return unicode.IsDigit(r) || r == '.'
}

// lex tokenizes the input SQL text. Token positions (and lexError
// positions) are rune indices. The scan walks byte offsets alongside
// the rune index and slices token text out of input, decoding a rune
// only at a byte >= utf8.RuneSelf; string literal contents are
// rebuilt rune by rune, so an invalid byte inside one reads as
// utf8.RuneError exactly as a []rune conversion would decode it.
func lex(input string) ([]token, error) {
	var toks []token
	n := len(input)
	i, ri := 0, 0 // byte offset and rune index of the next rune
	for i < n {
		r, size := runeAt(input, i)
		start, rstart := i, ri
		switch {
		case unicode.IsSpace(r):
			i += size
			ri++
		case r == '@':
			i++
			ri++
			if i >= n || !runeIs(input, i, isIdentStart) {
				return nil, &lexError{pos: rstart, msg: "'@' must be followed by a name"}
			}
			i, ri = skipRunes(input, i, ri, isIdentPart)
			// Optional ".part" suffixes: @DOCTOR.NAME
			for i+1 < n && input[i] == '.' && runeIs(input, i+1, isIdentStart) {
				i, ri = skipRunes(input, i+1, ri+1, isIdentPart)
			}
			toks = append(toks, token{kind: tokPlaceholder, text: input[start+1 : i], pos: rstart})
		case isIdentStart(r):
			i, ri = skipRunes(input, i, ri, isIdentPart)
			toks = append(toks, token{kind: tokIdent, text: input[start:i], pos: rstart})
		case unicode.IsDigit(r) || (r == '.' && i+1 < n && runeIs(input, i+1, unicode.IsDigit)):
			i, ri = skipRunes(input, i, ri, isNumberPart)
			text := input[start:i]
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, &lexError{pos: rstart, msg: "bad number " + text}
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: f, pos: rstart})
		case r == '\'':
			i++
			ri++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						ri += 2
						continue
					}
					i++
					ri++
					closed = true
					break
				}
				r, size := runeAt(input, i)
				sb.WriteRune(r)
				i += size
				ri++
			}
			if !closed {
				return nil, &lexError{pos: rstart, msg: "unterminated string"}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: rstart})
		case r == '<' || r == '>' || r == '!':
			i++
			ri++
			if i < n && (input[i] == '=' || (r == '<' && input[i] == '>')) {
				i++
				ri++
			}
			toks = append(toks, token{kind: tokSymbol, text: input[start:i], pos: rstart})
		case strings.ContainsRune("=,().*;", r):
			toks = append(toks, token{kind: tokSymbol, text: input[start : i+1], pos: rstart})
			i++
			ri++
		default:
			return nil, &lexError{pos: rstart, msg: fmt.Sprintf("unexpected character %q", r)}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: ri})
	return toks, nil
}

// runeAt decodes the rune at byte offset i of s, taking the one-byte
// path for ASCII. Invalid bytes decode as utf8.RuneError of width 1, as
// []rune conversion decodes them.
func runeAt(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

// skipRunes advances the byte offset i and rune index ri of s past
// every rune satisfying ok.
func skipRunes(s string, i, ri int, ok func(rune) bool) (int, int) {
	for i < len(s) {
		r, size := runeAt(s, i)
		if !ok(r) {
			break
		}
		i += size
		ri++
	}
	return i, ri
}

// runeIs reports whether the rune at byte offset i of s satisfies ok.
func runeIs(s string, i int, ok func(rune) bool) bool {
	r, _ := runeAt(s, i)
	return ok(r)
}
