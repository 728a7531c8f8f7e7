package runtime_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// ppCase is one distinct pipeline query with two binding sets: one
// binding per placeholder in order of appearance, and the same values
// shuffled and partly misnamed so the restorer's fallbacks run.
type ppCase struct {
	schema           *schema.Schema
	sql              string
	q                *sqlast.Query
	inOrder, shuffle []runtime.Binding
}

// postProcessCorpus returns every distinct SQL of the default-params
// pipeline corpus (seed 1) for patients and flights.
func postProcessCorpus(tb testing.TB) []ppCase {
	tb.Helper()
	var out []ppCase
	for _, name := range []string{"patients", "flights"} {
		s, _, err := boot.ResolveSchema(name, 10, 1)
		if err != nil {
			tb.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range core.New(s, core.DefaultParams(), 1).Run() {
			if seen[p.SQL] {
				continue
			}
			seen[p.SQL] = true
			q, err := sqlast.Parse(p.SQL)
			if err != nil {
				tb.Fatalf("parse %q: %v", p.SQL, err)
			}
			c := ppCase{schema: s, sql: p.SQL, q: q}
			for _, tok := range q.Tokens() {
				if !strings.HasPrefix(tok, "@") || strings.EqualFold(tok, "@JOIN") {
					continue
				}
				i := len(c.inOrder)
				v := sqlast.StrValue(fmt.Sprintf("v%d", i))
				if i%2 == 1 {
					v = sqlast.NumValue(float64(10*i + 7))
				}
				c.inOrder = append(c.inOrder, runtime.Binding{Placeholder: tok[1:], Value: v})
			}
			c.shuffle = append([]runtime.Binding(nil), c.inOrder...)
			rng := rand.New(rand.NewSource(int64(len(out))))
			rng.Shuffle(len(c.shuffle), func(i, j int) { c.shuffle[i], c.shuffle[j] = c.shuffle[j], c.shuffle[i] })
			for i := range c.shuffle {
				name := c.shuffle[i].Placeholder
				switch i % 3 {
				case 1: // same column, other table: the column fallback
					if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
						c.shuffle[i].Placeholder = "OTHER" + name[dot:]
					}
				case 2: // unknown name: the any-unconsumed fallback
					c.shuffle[i].Placeholder = "MISSING.X"
				}
			}
			out = append(out, c)
		}
	}
	return out
}

func postProcessLine(c ppCase, bindings []runtime.Binding) string {
	out, err := runtime.PostProcess(c.q, c.schema, bindings)
	if err != nil {
		return "error: " + err.Error()
	}
	return out.String()
}

// PostProcess answers on the whole default pipeline corpus are pinned
// byte for byte against the answers recorded before constant
// restoration, FROM repair and column qualification shared one
// traversal.
func TestPostProcessGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range postProcessCorpus(t) {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", c.schema.Name, c.sql, postProcessLine(c, c.inOrder), postProcessLine(c, c.shuffle))
	}
	path := filepath.Join("testdata", "postprocess_golden.tsv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}

// BenchmarkPostProcess post-processes the pipeline corpus, cycling
// through its distinct queries with the in-order bindings.
func BenchmarkPostProcess(b *testing.B) {
	corpus := postProcessCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := corpus[i%len(corpus)]
		if _, err := runtime.PostProcess(c.q, c.schema, c.inOrder); err != nil {
			b.Fatal(err)
		}
	}
}
