// Package tokens provides the shared natural-language tokenizer and
// vocabulary machinery used by the training pipeline and the neural
// translators, plus the placeholder-token conventions (@TABLE.COL for
// anonymized constants, @JOIN for the join placeholder).
package tokens

import (
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Special vocabulary tokens. Their ids are fixed by NewVocab.
const (
	PadToken = "<pad>"
	BosToken = "<bos>"
	EosToken = "<eos>"
	UnkToken = "<unk>"
	SepToken = "<sep>" // separates NL from schema tokens in model input
)

// Fixed ids of the special tokens.
const (
	PadID = 0
	BosID = 1
	EosID = 2
	UnkID = 3
	SepID = 4
)

// IsPlaceholder reports whether the token is an anonymized-constant or
// join placeholder (leading '@').
func IsPlaceholder(tok string) bool {
	return strings.HasPrefix(tok, "@")
}

// Tokenize splits natural-language text into lower-case word tokens.
// Placeholders (@TABLE.COL) survive as single tokens with their case
// preserved (placeholder names are canonically upper-case); other
// punctuation separates tokens and is dropped, except that numbers stay
// intact (including decimals).
//
// The scan walks byte offsets and slices tokens out of text, decoding
// a rune only at a byte >= utf8.RuneSelf. Every rune a token may
// contain is a valid encoding, so the slices equal the tokens a scan
// over []rune(text) re-encodes.
func Tokenize(text string) []string {
	var out []string
	n := len(text)
	i := 0
	for i < n {
		r, size := runeAt(text, i)
		switch {
		case unicode.IsSpace(r):
			i += size
		case r == '@':
			start := i
			i += size
			for i < n {
				r, size := runeAt(text, i)
				if r != '.' && r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					break
				}
				i += size
			}
			// Trim a trailing '.' that is sentence punctuation, not a
			// qualifier separator.
			tok := strings.TrimRight(text[start:i], ".")
			if tok != "@" {
				out = append(out, "@"+strings.ToUpper(tok[1:]))
			}
		case unicode.IsLetter(r):
			start := i
			for i < n {
				r, size := runeAt(text, i)
				if r != '_' && r != '\'' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					break
				}
				i += size
			}
			w := strings.Trim(text[start:i], "'")
			if w != "" {
				out = append(out, strings.ToLower(w))
			}
		case unicode.IsDigit(r):
			start := i
			for i < n {
				r, size := runeAt(text, i)
				if !unicode.IsDigit(r) && (r != '.' || i+1 >= n || !isDigitAt(text, i+1)) {
					break
				}
				i += size
			}
			out = append(out, text[start:i])
		default:
			i += size // punctuation
		}
	}
	return out
}

// runeAt decodes the rune starting at byte offset i of s, taking the
// one-byte path for ASCII. Invalid bytes decode as utf8.RuneError of
// width 1, as []rune conversion decodes them.
func runeAt(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

// isDigitAt reports whether the rune at byte offset i of s is a digit.
func isDigitAt(s string, i int) bool {
	r, _ := runeAt(s, i)
	return unicode.IsDigit(r)
}

// singleRune tags the key of a one-rune string. A pair key is
// hi<<32 | lo with both runes below 1<<21, so its top bit is never set
// and a tagged key never equals one: "a" and "\x00a" share no key.
const singleRune = 1 << 63

// BigramSet returns the sorted distinct character bigrams of s packed
// into uint64 keys (hi rune << 32 | lo rune). A one-rune string yields
// its tagged rune, and the empty string the empty set. Runes are
// decoded as range decodes them, so invalid bytes count as
// utf8.RuneError.
func BigramSet(s string) []uint64 {
	out := make([]uint64, 0, len(s))
	prev, n := rune(0), 0
	for _, r := range s {
		if n > 0 {
			out = append(out, uint64(uint32(prev))<<32|uint64(uint32(r)))
		}
		prev = r
		n++
	}
	if n == 1 {
		return append(out, singleRune|uint64(uint32(prev)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// BigramJaccard is the Jaccard index of the character-bigram sets of a
// and b: 1 for identical strings, 0 when they share no bigram.
func BigramJaccard(a, b string) float64 {
	if a == b {
		return 1
	}
	sa, sb := BigramSet(a), BigramSet(b)
	return Jaccard(Intersect(sa, sb), len(sa), len(sb))
}

// Intersect counts the keys two BigramSets share.
func Intersect(a, b []uint64) int {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// Jaccard is the Jaccard index of two sets of na and nb elements
// sharing inter of them: inter / (na + nb - inter), 0 when both are
// empty.
func Jaccard(inter, na, nb int) float64 {
	union := na + nb - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Detokenize joins tokens back into a display string.
func Detokenize(toks []string) string {
	return strings.Join(toks, " ")
}

// Vocab is a bidirectional token-id mapping with the five special
// tokens preinstalled at fixed ids.
type Vocab struct {
	ids   map[string]int
	words []string
}

// NewVocab returns a vocabulary containing only the special tokens.
func NewVocab() *Vocab {
	v := &Vocab{ids: map[string]int{}}
	for _, t := range []string{PadToken, BosToken, EosToken, UnkToken, SepToken} {
		v.Add(t)
	}
	return v
}

// Add inserts the token if absent and returns its id.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	id := len(v.words)
	v.ids[tok] = id
	v.words = append(v.words, tok)
	return id
}

// ID returns the token's id, or UnkID for unknown tokens.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	return UnkID
}

// Has reports whether the token is in the vocabulary.
func (v *Vocab) Has(tok string) bool {
	_, ok := v.ids[tok]
	return ok
}

// Word returns the token for an id (UnkToken for out-of-range ids).
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return UnkToken
	}
	return v.words[id]
}

// Size is the number of tokens, including specials.
func (v *Vocab) Size() int { return len(v.words) }

// Encode maps tokens to ids (unknowns become UnkID).
func (v *Vocab) Encode(toks []string) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		out[i] = v.ID(t)
	}
	return out
}

// Decode maps ids back to tokens.
func (v *Vocab) Decode(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Word(id)
	}
	return out
}

// Words returns a copy of the vocabulary in id order.
func (v *Vocab) Words() []string {
	return append([]string(nil), v.words...)
}

// BuildVocab constructs a vocabulary from token sequences, keeping
// tokens with at least minCount occurrences. Token insertion order is
// deterministic (by descending count, then lexicographic).
func BuildVocab(seqs [][]string, minCount int) *Vocab {
	counts := map[string]int{}
	for _, seq := range seqs {
		for _, t := range seq {
			counts[t]++
		}
	}
	type wc struct {
		w string
		c int
	}
	var list []wc
	for w, c := range counts {
		if c >= minCount {
			list = append(list, wc{w, c})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].w < list[j].w
	})
	v := NewVocab()
	for _, e := range list {
		v.Add(e.w)
	}
	return v
}
