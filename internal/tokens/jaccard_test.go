package tokens

import (
	"math"
	"sort"
	"testing"
)

// jaccardStrings is the string-bigram oracle for BigramJaccard: the
// bigrams are two-rune strings (the one-rune string itself for a
// one-rune input), so a one-rune input can never equal a pair.
func jaccardStrings(a, b string) float64 {
	if a == b {
		return 1
	}
	sa, sb := bigramStrings(a), bigramStrings(b)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			inter++
			i++
			j++
		case sa[i] < sb[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// bigramStrings returns the sorted distinct two-rune substrings of s,
// re-encoded from its decoded runes.
func bigramStrings(s string) []string {
	r := []rune(s)
	if len(r) == 1 {
		return []string{string(r)}
	}
	var out []string
	for i := 0; i+1 < len(r); i++ {
		out = append(out, string(r[i:i+2]))
	}
	sort.Strings(out)
	w := 0
	for i, g := range out {
		if i == 0 || g != out[w-1] {
			out[w] = g
			w++
		}
	}
	return out[:w]
}

func TestBigramJaccard(t *testing.T) {
	if BigramJaccard("abc", "abc") != 1 {
		t.Fatal("identical strings = 1")
	}
	if BigramJaccard("abc", "xyz") != 0 {
		t.Fatal("disjoint strings = 0")
	}
	sim := BigramJaccard("influenza", "influenzas")
	if sim <= 0.5 || sim >= 1 {
		t.Fatalf("near-match similarity = %v", sim)
	}
	if BigramJaccard("male", "male") <= BigramJaccard("male", "female") {
		t.Fatal("exact match must beat partial match")
	}
}

func TestBigramJaccardEdgeCases(t *testing.T) {
	if BigramJaccard("", "") != 1 {
		t.Fatal("empty strings are identical")
	}
	if BigramJaccard("a", "") != 0 {
		t.Fatal("empty vs non-empty = 0")
	}
	if BigramJaccard("a", "a") != 1 {
		t.Fatal("single identical runes = 1")
	}
	if BigramJaccard("a", "b") != 0 {
		t.Fatal("distinct single runes = 0")
	}
	// A one-rune key must not equal the pair key of a NUL and that rune.
	if BigramJaccard("a", "\x00a") != 0 {
		t.Fatal(`"a" and "\x00a" share no bigram`)
	}
}

// FuzzJaccardDifferential: BigramJaccard over packed keys scores every
// pair of strings exactly as the string-bigram oracle does, invalid
// UTF-8 included. Explore with
// `go test -fuzz=FuzzJaccardDifferential ./internal/tokens`.
func FuzzJaccardDifferential(f *testing.F) {
	for _, p := range [][2]string{
		{"\x00a", "a"}, {"", ""}, {"", "a"}, {"a", "a"}, {"a", "b"}, {"é", "é"},
		{"influenza", "influenzas"}, {"new york city", "nyc"},
		{"straße", "strasse"}, {"日本語", "日本"}, {"caf\xc3\xa9", "caf\xff"},
	} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		got, want := BigramJaccard(a, b), jaccardStrings(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BigramJaccard(%q, %q) = %v, string oracle %v", a, b, got, want)
		}
	})
}
