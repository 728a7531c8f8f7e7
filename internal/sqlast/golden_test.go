package sqlast_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/patients"
	"repro/internal/spider"
	"repro/internal/sqlast"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// goldSQL lists every distinct gold query of the bundled workloads:
// spider.Workload over every bundled schema, then the patients
// benchmark, in first-appearance order.
func goldSQL() []string {
	var out []string
	seen := map[string]bool{}
	add := func(sql string) {
		if !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	for _, s := range spider.AllSchemas() {
		for _, q := range spider.Workload(s, 40, 1) {
			add(q.SQL)
		}
	}
	for _, c := range patients.Cases() {
		add(c.SQL)
	}
	return out
}

// checkGolden compares got against testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
}

// Canonical, Pattern, Columns and QueryDifficulty of every bundled
// gold query are pinned byte for byte: the rewrites share one
// traversal, and the recorded answers predate it.
func TestRewriteGolden(t *testing.T) {
	var b strings.Builder
	for _, sql := range goldSQL() {
		q, err := sqlast.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		var cols []string
		for _, c := range q.Columns() {
			cols = append(cols, c.String())
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\n", sql, q.Canonical(), q.Pattern(), strings.Join(cols, ","), sqlast.QueryDifficulty(q))
	}
	checkGolden(t, "rewrite_golden.tsv", b.String())
}
