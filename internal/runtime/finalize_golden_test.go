package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/critic"
	"repro/internal/sqlast"
)

// finalizeGolden is one beam's expected finalization outcome.
type finalizeGolden struct {
	sql      string // winning query, "" when finalization fails
	verdicts []string
	repaired bool
	errType  string // %T of the error, "" on success
	errMsg   string
}

// The one finalization loop judges a beam with and without a critic.
// Every expected value below was recorded before the critic and the
// plain execution-guided walk were folded into one loop, so the fold
// is held to the exact answers, verdicts and error messages the two
// loops gave.
func TestFinalizeGolden(t *testing.T) {
	good := "SELECT name FROM patients WHERE age = @PATIENTS.AGE"
	panicky := func(*sqlast.Query, int) error { panic("injected engine panic") }
	cases := []struct {
		name     string
		beam     []string
		exec     func(*sqlast.Query, int) error // critic sandbox override
		hookDeny bool
		plain    finalizeGolden
		critic   finalizeGolden
	}{
		{
			name: "valid top-1",
			beam: []string{good, "SELECT nme FROM patients"},
			plain: finalizeGolden{
				sql: "SELECT name FROM patients WHERE age = 80",
			},
			critic: finalizeGolden{
				sql:      "SELECT name FROM patients WHERE age = 80",
				verdicts: []string{"valid"},
			},
		},
		{
			name: "exec-failing top-1, valid second",
			beam: []string{"SELECT nonexistent FROM patients", good},
			plain: finalizeGolden{
				sql: "SELECT name FROM patients WHERE age = 80",
			},
			critic: finalizeGolden{
				sql:      "SELECT name FROM patients WHERE age = 80",
				verdicts: []string{"invalid: unknown column \"nonexistent\"", "valid"},
			},
		},
		{
			name: "all unparsable",
			beam: []string{"garbage output (", "more garbage )"},
			plain: finalizeGolden{
				errType: "*fmt.wrapError",
				errMsg:  "runtime: model output unparsable (\"garbage output (\"): sql parse error at 0: expected SELECT, got \"garbage\"",
			},
			critic: finalizeGolden{
				verdicts: []string{"unusable: sql parse error at 0: expected SELECT, got \"garbage\"", "unusable: sql parse error at 0: expected SELECT, got \"more\""},
				errType:  "*runtime.RejectedError",
				errMsg:   "runtime: critic rejected every candidate [unusable: sql parse error at 0: expected SELECT, got \"garbage\"; unusable: sql parse error at 0: expected SELECT, got \"more\"]",
			},
		},
		{
			name: "repaired-only",
			beam: []string{"SELECT nme FROM patients WHERE age = @PATIENTS.AGE", "SELECT nme FROM patients"},
			plain: finalizeGolden{
				errType: "*fmt.wrapError",
				errMsg:  "runtime: candidate does not execute: engine: unknown column \"nme\"",
			},
			critic: finalizeGolden{
				sql:      "SELECT name FROM patients WHERE age = 80",
				verdicts: []string{"repaired(identifier)", "repaired(identifier)"},
				repaired: true,
			},
		},
		{
			name: "sandbox-degraded",
			beam: []string{"SELECT xqzw FROM patients", good},
			exec: panicky,
			plain: finalizeGolden{
				sql: "SELECT name FROM patients WHERE age = 80",
			},
			critic: finalizeGolden{
				sql:      "SELECT name FROM patients WHERE age = 80",
				verdicts: []string{"invalid: unknown column \"xqzw\"", "sandbox_error: critic: engine panicked in sandbox: injected engine panic"},
			},
		},
		{
			name:     "hook-skipped",
			beam:     []string{"SELECT nonexistent FROM patients", good},
			hookDeny: true,
			plain: finalizeGolden{
				sql: "SELECT name FROM patients WHERE age = 80",
			},
			critic: finalizeGolden{
				sql:      "SELECT name FROM patients WHERE age = 80",
				verdicts: []string{"skipped: critic breaker open"},
			},
		},
	}
	db := benchDB(t)
	for _, tc := range cases {
		beam := make([][]string, len(tc.beam))
		for i, s := range tc.beam {
			beam[i] = strings.Fields(s)
		}
		for _, withCritic := range []bool{false, true} {
			tr := NewTranslator(db, oracleModel{})
			want := tc.plain
			if withCritic {
				tr.Critic = critic.New(db, critic.Config{Seed: 1, Exec: tc.exec})
				if tc.hookDeny {
					tr.CriticHook = &criticRecHook{allowErr: errors.New("critic breaker open")}
				}
				want = tc.critic
			}
			anon := mustAnon(t, tr.PH, "show the names of all patients with age 80")
			trace := &Trace{}
			q, err := tr.FinalizeCandidates(beam, anon.Bindings, trace)
			got := finalizeGolden{verdicts: trace.CriticVerdicts, repaired: trace.Repaired}
			if q != nil {
				got.sql = q.String()
			}
			if err != nil {
				got.errType, got.errMsg = fmt.Sprintf("%T", err), err.Error()
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (critic %v):\n got  %#v\n want %#v", tc.name, withCritic, got, want)
			}
		}
	}
}
