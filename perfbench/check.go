package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sqlast"
)

// rowsDigest hashes an answer's columns and rows, each cell length-
// prefixed so no two results share a digest by concatenation.
type rowsDigest struct{ h hash.Hash }

func newRowsDigest() rowsDigest { return rowsDigest{h: sha256.New()} }

func (d rowsDigest) cell(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	// hash.Hash writes never fail.
	_, _ = d.h.Write(n[:])
	_, _ = d.h.Write([]byte(s))
}

func (d rowsDigest) end() { _, _ = d.h.Write([]byte{0x1e}) }

func (d rowsDigest) sum() (out [sha256.Size]byte) {
	d.h.Sum(out[:0])
	return out
}

// hashRows digests the columns and rows a server sent.
func hashRows(cols []string, rows [][]string) [sha256.Size]byte {
	d := newRowsDigest()
	for _, c := range cols {
		d.cell(c)
	}
	d.end()
	for _, r := range rows {
		for _, v := range r {
			d.cell(v)
		}
		d.end()
	}
	return d.sum()
}

// hashResult digests an executed result exactly as hashRows digests the
// same result sent over the wire.
func hashResult(res *engine.Result) [sha256.Size]byte {
	d := newRowsDigest()
	for _, c := range res.Columns {
		d.cell(c)
	}
	d.end()
	for _, r := range res.Rows {
		for _, v := range r {
			d.cell(v.String())
		}
		d.end()
	}
	return d.sum()
}

// checker verifies answers against the benchmark's own copy of the
// tenant database, scores them against the gold SQL, and holds every
// 200 answer to the answer table.
type checker struct {
	db    *engine.Database
	gold  map[string]*engine.Result
	table answerTable
}

func newChecker(db *engine.Database) *checker {
	return &checker{db: db, gold: map[string]*engine.Result{}, table: answerTable{}}
}

// check verifies that every 200 answer's rows are exactly what the
// returned SQL yields on the checker's database and that it agrees with
// every earlier answer to the same question from the same tier, and
// returns how many of them match the gold SQL's result.
func (c *checker) check(as []answer) (int, error) {
	correct := 0
	for _, a := range as {
		if a.Status != http.StatusOK {
			continue
		}
		if a.Err != "" {
			return correct, fmt.Errorf("%q: %s", a.Q.NL, a.Err)
		}
		if err := c.table.add(a); err != nil {
			return correct, err
		}
		q, err := sqlast.Parse(a.SQL)
		if err != nil {
			return correct, fmt.Errorf("%q: returned SQL %q does not parse: %w", a.Q.NL, a.SQL, err)
		}
		res, err := c.db.Execute(q)
		if err != nil {
			return correct, fmt.Errorf("%q: returned SQL %q does not execute: %w", a.Q.NL, a.SQL, err)
		}
		if hashResult(res) != a.RowsHash {
			return correct, fmt.Errorf("%q: the %d rows sent for %q differ from its execution here (%d rows)",
				a.Q.NL, a.Rows, a.SQL, len(res.Rows))
		}
		gold, err := c.goldResult(a.Q.Gold)
		if err != nil {
			return correct, err
		}
		if engine.EqualResults(res, gold) {
			correct++
		}
	}
	return correct, nil
}

func (c *checker) goldResult(sql string) (*engine.Result, error) {
	if r, ok := c.gold[sql]; ok {
		return r, nil
	}
	q, err := sqlast.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("gold SQL %q: %w", sql, err)
	}
	r, err := c.db.Execute(q)
	if err != nil {
		return nil, fmt.Errorf("gold SQL %q: %w", sql, err)
	}
	c.gold[sql] = r
	return r, nil
}

// answerTable maps a question and the tier that answered it to the SQL
// it answered, both as truncated hex SHA-256 digests.
//
// Which tier answers a request depends on the tier breakers, whose
// cooldown is wall-clock time (see serveConfig). What a tier answers to
// a question does not: every 200 to the same question from the same
// tier must carry the same SQL, within a run, between the traced and
// the untraced server, and across every run of the same program,
// whatever its seed.
type answerTable map[string]string

func shortHash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// add records a 200 answer, or reports that it contradicts an earlier
// one.
func (t answerTable) add(a answer) error {
	k, v := shortHash(a.Q.NL, a.Tier), shortHash(a.SQL)
	if prev, ok := t[k]; ok && prev != v {
		return fmt.Errorf("%q: tier %s answered %q, but an earlier answer to it from the same tier differed (SQL digest %s, now %s)",
			a.Q.NL, a.Tier, a.SQL, prev, v)
	}
	t[k] = v
	return nil
}

// answersFile is where a program's answer table persists between runs.
const answersFile = "answers.json"

// mergeAnswers checks t against the answer table the earlier runs of
// the same program left in dir, and saves the union.
func mergeAnswers(dir string, t answerTable) error {
	path := filepath.Join(dir, answersFile)
	saved := answerTable{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &saved); err != nil {
			return fmt.Errorf("answer table %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	for k, v := range t {
		if prev, ok := saved[k]; ok && prev != v {
			return fmt.Errorf("an answer differs from an earlier run's answer to the same question from the same tier (question+tier digest %s: SQL digest %s, earlier %s)", k, v, prev)
		}
		saved[k] = v
	}
	return writeJSON(dir, path, saved)
}

// digest hashes what each answer said: status, answering tier, SQL and
// rows. Timing never enters it.
func digest(phases ...[]answer) string {
	h := sha256.New()
	for _, as := range phases {
		for _, a := range as {
			// hash.Hash writes never fail.
			_, _ = fmt.Fprintf(h, "%d\x1e%s\x1e%s\x1e%x\n", a.Status, a.Tier, a.SQL, a.RowsHash)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint is what a run with a given workload, seed and length
// answered, and how many of its requests met an open tier breaker.
type fingerprint struct {
	Digest      string  `json:"digest"`
	Accuracy    float64 `json:"answer_accuracy"`
	BreakerOpen int     `json:"breaker_open"`
}

// checkRepeat requires this run's answers (status, tier, SQL and rows
// of every warm and open-loop request, and the accuracy) to equal those
// of the earlier run of the same workload, seed, length and mode with
// the same program, and records them when there is none yet. An open
// breaker makes answers depend on timing, so runs in which a request
// met one are only recorded, never compared.
func checkRepeat(dir string, o options, acc float64, phases ...[]answer) error {
	dir = filepath.Join(dir, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%g-trace%t.json", o.w.name, o.seed, o.seconds, o.trace))
	got := fingerprint{Digest: digest(phases...), Accuracy: acc}
	for _, as := range phases {
		got.BreakerOpen += countBreakerOpen(as)
	}
	var want fingerprint
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return writeJSON(dir, path, got)
	case err != nil:
		return err
	}
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("fingerprint %s: %w", path, err)
	}
	if got.BreakerOpen > 0 || want.BreakerOpen > 0 {
		logf("exact-repeat check skipped: %d requests of this run and %d of the earlier one met an open breaker",
			got.BreakerOpen, want.BreakerOpen)
		if got.BreakerOpen == 0 {
			return writeJSON(dir, path, got)
		}
		return nil
	}
	if got != want {
		return fmt.Errorf("answers differ from an earlier run with the same seed (accuracy %.6f vs %.6f, digest %s vs %s)",
			got.Accuracy, want.Accuracy, got.Digest[:12], want.Digest[:12])
	}
	return nil
}

// writeJSON atomically replaces path, a file in dir, with v as JSON.
func writeJSON(dir, path string, v any) error {
	out, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(out)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		if rmErr := os.Remove(tmp.Name()); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			err = errors.Join(err, rmErr)
		}
	}
	return err
}

// countFailed counts exchanges that failed as operations: transport
// errors and error responses other than the typed "no translation"
// (tier_exhausted) and "invalid question" (validation) answers, which
// are the server answering correctly that it cannot help.
func countFailed(as []answer) int {
	n := 0
	for _, a := range as {
		if a.Status != http.StatusOK && a.Kind != serve.KindTierExhausted && a.Kind != serve.KindValidation {
			n++
		}
	}
	return n
}

// countBreakerOpen counts the requests that met an open tier breaker:
// a tier was skipped before the answer, or the error says so.
func countBreakerOpen(as []answer) int {
	n := 0
	for _, a := range as {
		if a.BreakerOpen {
			n++
		}
	}
	return n
}
