package tokens

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasics(t *testing.T) {
	cases := map[string][]string{
		"Show me all patients!":         {"show", "me", "all", "patients"},
		"age is 80":                     {"age", "is", "80"},
		"cost of 12.5 dollars":          {"cost", "of", "12.5", "dollars"},
		"what's the name":               {"what's", "the", "name"},
		"  spaced   out  ":              {"spaced", "out"},
		"":                              nil,
		"length_of_stay > 3":            {"length_of_stay", "3"},
		"patients, doctors; and visits": {"patients", "doctors", "and", "visits"},
	}
	for in, want := range cases {
		got := Tokenize(in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizePlaceholders(t *testing.T) {
	got := Tokenize("with age @patients.age today")
	want := []string{"with", "age", "@PATIENTS.AGE", "today"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Sentence-final period after a placeholder is punctuation.
	got2 := Tokenize("show @JOIN.")
	if len(got2) != 2 || got2[1] != "@JOIN" {
		t.Fatalf("got %v", got2)
	}
	if !IsPlaceholder("@X") || IsPlaceholder("x") {
		t.Fatal("IsPlaceholder broken")
	}
}

func TestVocabSpecials(t *testing.T) {
	v := NewVocab()
	if v.ID(PadToken) != PadID || v.ID(BosToken) != BosID || v.ID(EosToken) != EosID ||
		v.ID(UnkToken) != UnkID || v.ID(SepToken) != SepID {
		t.Fatal("special token ids shifted")
	}
	if v.Size() != 5 {
		t.Fatalf("empty vocab size = %d", v.Size())
	}
}

func TestVocabAddLookup(t *testing.T) {
	v := NewVocab()
	id := v.Add("hello")
	if v.Add("hello") != id {
		t.Fatal("Add should be idempotent")
	}
	if v.ID("hello") != id || v.Word(id) != "hello" {
		t.Fatal("lookup broken")
	}
	if v.ID("missing") != UnkID {
		t.Fatal("unknown word should map to UNK")
	}
	if v.Word(99999) != UnkToken {
		t.Fatal("out-of-range id should be UNK token")
	}
	if !v.Has("hello") || v.Has("missing") {
		t.Fatal("Has broken")
	}
}

func TestEncodeDecode(t *testing.T) {
	v := NewVocab()
	for _, w := range []string{"show", "me", "patients"} {
		v.Add(w)
	}
	toks := []string{"show", "me", "unknownword", "patients"}
	ids := v.Encode(toks)
	back := v.Decode(ids)
	want := []string{"show", "me", UnkToken, "patients"}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("roundtrip = %v", back)
	}
}

func TestBuildVocab(t *testing.T) {
	seqs := [][]string{
		{"a", "b", "a"},
		{"a", "c"},
	}
	v := BuildVocab(seqs, 1)
	// a (3), b (1), c (1) — a first, then b/c alphabetical.
	if v.Word(5) != "a" || v.Word(6) != "b" || v.Word(7) != "c" {
		t.Fatalf("order = %v", v.Words())
	}
	v2 := BuildVocab(seqs, 2)
	if v2.Has("b") || !v2.Has("a") {
		t.Fatal("minCount filter broken")
	}
}

// Property: known words roundtrip through Encode/Decode.
func TestEncodeDecodeQuick(t *testing.T) {
	v := NewVocab()
	words := []string{"alpha", "beta", "gamma", "delta"}
	for _, w := range words {
		v.Add(w)
	}
	f := func(idx []uint8) bool {
		var toks []string
		for _, i := range idx {
			toks = append(toks, words[int(i)%len(words)])
		}
		return reflect.DeepEqual(v.Decode(v.Encode(toks)), toks) || len(toks) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenization is idempotent on its own output.
func TestTokenizeIdempotentQuick(t *testing.T) {
	inputs := []string{
		"Show me all patients aged 80!",
		"what is the AVG cost of @VISITS.COST?",
		"name, diagnosis & length_of_stay",
	}
	f := func(i uint8) bool {
		toks := Tokenize(inputs[int(i)%len(inputs)])
		again := Tokenize(Detokenize(toks))
		return reflect.DeepEqual(toks, again)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// tokenizeRunes is Tokenize as it was before the byte-offset scan: the
// same rules over []rune(text), re-encoding every token. It is the
// oracle of the differential fuzz target.
func tokenizeRunes(text string) []string {
	var out []string
	runes := []rune(text)
	n := len(runes)
	i := 0
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '@':
			start := i
			i++
			for i < n && (runes[i] == '.' || runes[i] == '_' || unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
				i++
			}
			tok := string(runes[start:i])
			tok = strings.TrimRight(tok, ".")
			if tok != "@" {
				out = append(out, strings.ToUpper(tok[1:]))
				out[len(out)-1] = "@" + out[len(out)-1]
			}
		case unicode.IsLetter(r):
			start := i
			for i < n && (runes[i] == '_' || runes[i] == '\'' || unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
				i++
			}
			w := strings.Trim(string(runes[start:i]), "'")
			if w != "" {
				out = append(out, strings.ToLower(w))
			}
		case unicode.IsDigit(r):
			start := i
			for i < n && (unicode.IsDigit(runes[i]) || (runes[i] == '.' && i+1 < n && unicode.IsDigit(runes[i+1]))) {
				i++
			}
			out = append(out, string(runes[start:i]))
		default:
			i++
		}
	}
	return out
}

// tokenizeSeeds covers every branch of the scanner: placeholders with
// trailing and inner dots, apostrophes, decimals and dangling dots,
// non-ASCII letters and digits, and invalid UTF-8.
var tokenizeSeeds = []string{
	"Show me all patients!", "with age @patients.age today", "show @JOIN.", "@", "@.",
	"what's the 'name'", "cost of 12.5 dollars. 3. .5 1..2", "length_of_stay > 3",
	"Ünïcödé straße ΑΒΓ ٣٤.٥ 日本語", "caf\xc3\xa9 \xff\xfe @a\xffb 9\x80", "\xe2\x80", "İstanbul ǅ",
}

// TestTokenizeMatchesRunesOracle: the byte-offset Tokenize agrees with
// the rune-based oracle on the fuzz seeds.
func TestTokenizeMatchesRunesOracle(t *testing.T) {
	for _, s := range tokenizeSeeds {
		if got, want := Tokenize(s), tokenizeRunes(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, rune oracle %q", s, got, want)
		}
	}
}

// FuzzTokenizeDifferential: Tokenize and the rune-based oracle agree on
// arbitrary input, invalid UTF-8 included. Explore with
// `go test -fuzz=FuzzTokenizeDifferential ./internal/tokens`.
func FuzzTokenizeDifferential(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), tokenizeRunes(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, rune oracle %q", s, got, want)
		}
	})
}
