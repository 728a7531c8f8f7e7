package eval

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/boot"
	"repro/internal/critic"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/spider"
)

// corruptedFixture boots the instant-start template model for flights
// and wraps it so half the workload's decodes carry repairable
// identifier typos — the shape the critic exists to rescue.
func corruptedFixture(t *testing.T) (*boot.Unit, models.Translator, []spider.Question) {
	t.Helper()
	u, err := boot.Build(context.Background(), boot.Spec{Schema: "flights", Model: "nn", Seed: 1, Rows: 40})
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	for _, tab := range u.Schema.Tables {
		for _, c := range tab.Columns {
			cols = append(cols, c.Name)
		}
	}
	model := fault.NewTypos(u.Model, fault.NewInjector(1, 2), cols)
	qs := spider.Workload(u.Schema, 60, 1+7919)
	return u, model, qs
}

// The acceptance bar for the critic tier: on a workload whose decodes
// contain repairable mistakes, answering through the critic yields a
// strictly higher valid-SQL rate than answering without it, and the
// gain comes from repairs, not luck.
func TestCriticStrictImprovement(t *testing.T) {
	u, model, qs := corruptedFixture(t)
	rep, err := EvalCriticCtx(context.Background(), model, u.Schema, u.DB, qs, 1, critic.Config{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Questions != len(qs) {
		t.Fatalf("Questions = %d, want %d", rep.Questions, len(qs))
	}
	if rep.On.Valid.Correct <= rep.Off.Valid.Correct {
		t.Fatalf("critic on valid %s not strictly above off %s", rep.On.Valid, rep.Off.Valid)
	}
	if rep.On.Repaired == 0 {
		t.Fatalf("no repairs recorded; improvement %s -> %s unexplained", rep.Off.Valid, rep.On.Valid)
	}
	if rep.On.Exact.Correct < rep.Off.Exact.Correct {
		t.Fatalf("critic cost exactness: on %s below off %s", rep.On.Exact, rep.Off.Exact)
	}
}

// The report is a pure function of (model, schema, database, workload,
// critic config): one worker and eight produce identical reports.
func TestCriticReportWorkerInvariant(t *testing.T) {
	u, model, qs := corruptedFixture(t)
	qs = qs[:30]
	one, err := EvalCriticCtx(context.Background(), model, u.Schema, u.DB, qs, 1, critic.Config{Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := EvalCriticCtx(context.Background(), model, u.Schema, u.DB, qs, 1, critic.Config{Seed: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("report varies with worker count:\n  1: %+v\n  8: %+v", one, eight)
	}
}

// EvalCriticCtx reports are pinned on the corrupted fixture at both
// beam widths. The expected reports were recorded before the eval
// stopped decoding its own beam and before finalization became one
// loop, so both folds are held to the numbers they replaced.
func TestCriticReportGolden(t *testing.T) {
	u, model, qs := corruptedFixture(t)
	for _, tc := range []struct {
		execGuided int
		want       CriticReport
	}{
		{1, CriticReport{
			Questions: 60,
			Off:       CriticArm{Valid: Frac{33, 60}, Exact: Frac{9, 60}},
			On:        CriticArm{Valid: Frac{54, 60}, Exact: Frac{13, 60}, Repaired: 21, Rejected: 6},
		}},
		{3, CriticReport{
			Questions: 60,
			Off:       CriticArm{Valid: Frac{33, 60}, Exact: Frac{9, 60}},
			On:        CriticArm{Valid: Frac{54, 60}, Exact: Frac{13, 60}, Repaired: 21, Rejected: 6},
		}},
	} {
		rep, err := EvalCriticCtx(context.Background(), model, u.Schema, u.DB, qs, tc.execGuided, critic.Config{Seed: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rep, tc.want) {
			t.Errorf("execGuided %d: report %#v, want %#v", tc.execGuided, *rep, tc.want)
		}
	}
}

// failingTop is a beam model over a one-candidate translator: its beam
// puts a candidate that cannot execute (every known column name gains
// a "_x" suffix) ahead of the inner model's answer, and its plain
// Translate returns that failing top candidate alone.
type failingTop struct {
	models.Translator
	cols map[string]bool
}

func (m failingTop) Translate(nl, schemaToks []string) []string {
	return m.TranslateK(nl, schemaToks, 1)[0]
}

func (m failingTop) TranslateK(nl, schemaToks []string, k int) [][]string {
	good := m.Translator.Translate(nl, schemaToks)
	bad := make([]string, len(good))
	for i, tok := range good {
		bad[i] = tok
		if m.cols[strings.ToLower(tok)] {
			bad[i] = tok + "_x"
		}
	}
	return [][]string{bad, good}[:min(k, 2)]
}

// The multi-candidate eval path: with a beam whose top candidate fails,
// exec-guided finalization over three candidates must answer what the
// top-1 walk cannot, so the two beam widths give different reports.
// Both reports were recorded before the critic's identifier repair
// shared the query traversal.
func TestCriticReportBeamGolden(t *testing.T) {
	u, _, qs := corruptedFixture(t)
	cols := map[string]bool{}
	var names []string
	for _, tab := range u.Schema.Tables {
		for _, c := range tab.Columns {
			cols[strings.ToLower(c.Name)] = true
			names = append(names, c.Name)
		}
	}
	model := fault.NewTypos(failingTop{Translator: u.Model, cols: cols}, fault.NewInjector(1, 2), names)
	for _, tc := range []struct {
		execGuided int
		want       CriticReport
	}{
		{1, CriticReport{
			Questions: 60,
			Off:       CriticArm{Valid: Frac{10, 60}, Exact: Frac{5, 60}},
			On:        CriticArm{Valid: Frac{54, 60}, Exact: Frac{13, 60}, Repaired: 44, Rejected: 6},
		}},
		{3, CriticReport{
			Questions: 60,
			Off:       CriticArm{Valid: Frac{33, 60}, Exact: Frac{9, 60}},
			On:        CriticArm{Valid: Frac{54, 60}, Exact: Frac{13, 60}, Repaired: 21, Rejected: 6},
		}},
	} {
		rep, err := EvalCriticCtx(context.Background(), model, u.Schema, u.DB, qs, tc.execGuided, critic.Config{Seed: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rep, tc.want) {
			t.Errorf("execGuided %d: report %#v, want %#v", tc.execGuided, *rep, tc.want)
		}
	}
}
