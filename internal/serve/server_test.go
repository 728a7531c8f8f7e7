package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
)

func testDB(t *testing.T) *engine.Database {
	t.Helper()
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// oracleModel always emits a correct anonymized query, isolating the
// serving stack from model quality.
type oracleModel struct{}

func (oracleModel) Name() string           { return "oracle" }
func (oracleModel) Train([]models.Example) {}
func (oracleModel) Translate(nl, st []string) []string {
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// failModel fails every question fast (no output) and counts calls,
// so tests can prove a tripped breaker stops routing to it.
type failModel struct{ calls atomic.Int64 }

func (*failModel) Name() string           { return "fail" }
func (*failModel) Train([]models.Example) {}
func (m *failModel) Translate(nl, st []string) []string {
	m.calls.Add(1)
	return nil
}

// blockModel parks every Translate call on a gate until the test
// releases it, then answers like the oracle. Calls are counted.
type blockModel struct {
	gate  chan struct{}
	calls atomic.Int64
}

func newBlockModel() *blockModel { return &blockModel{gate: make(chan struct{})} }

func (*blockModel) Name() string           { return "block" }
func (*blockModel) Train([]models.Example) {}
func (m *blockModel) Translate(nl, st []string) []string {
	m.calls.Add(1)
	<-m.gate
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

// release opens the gate exactly once.
func (m *blockModel) release() { close(m.gate) }

// flakyModel fails the first n calls, then answers like the oracle.
type flakyModel struct {
	failFirst int64
	calls     atomic.Int64
}

func (*flakyModel) Name() string           { return "flaky" }
func (*flakyModel) Train([]models.Example) {}
func (m *flakyModel) Translate(nl, st []string) []string {
	if m.calls.Add(1) <= m.failFirst {
		return nil
	}
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}

const goodQuestion = "show the names of all patients with age 80"

// urlQuery escapes a question for the ?q= form.
func urlQuery(q string) string { return url.QueryEscape(q) }

// newTestServer wires a Server over the patients fixture database.
func newTestServer(t *testing.T, model models.Translator, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	tr := runtime.NewTranslator(testDB(t), model)
	s := New(tr, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON GETs url and decodes the body into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s body %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestAskEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	var resp askResponse
	status := getJSON(t, ts.URL+"/ask?q="+urlQuery(goodQuestion), &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !strings.Contains(resp.SQL, "age = 80") {
		t.Fatalf("SQL = %q, want the bound constant", resp.SQL)
	}
	if resp.Tier != "oracle" {
		t.Fatalf("Tier = %q, want oracle", resp.Tier)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("rows = %v, want the 3 patients aged 80", resp.Rows)
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "name" {
		t.Fatalf("columns = %v, want [name]", resp.Columns)
	}
}

func TestTranslateDoesNotExecute(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	var resp askResponse
	status := getJSON(t, ts.URL+"/translate?q="+urlQuery(goodQuestion), &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if resp.SQL == "" {
		t.Fatal("missing SQL")
	}
	if len(resp.Rows) != 0 || len(resp.Columns) != 0 {
		t.Fatalf("translate must not execute; got columns %v rows %v", resp.Columns, resp.Rows)
	}
}

func TestPostAsk(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	body := strings.NewReader(fmt.Sprintf(`{"question": %q}`, goodQuestion))
	resp, err := http.Post(ts.URL+"/ask", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got askResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 {
		t.Fatalf("rows = %v, want 3", got.Rows)
	}
}

func TestValidationErrorsAreTyped(t *testing.T) {
	s, ts := newTestServer(t, oracleModel{}, Config{Workers: 2})
	cases := []struct {
		name string
		do   func() (int, errorEnvelope)
	}{
		{"empty question", func() (int, errorEnvelope) {
			var env errorEnvelope
			return getJSON(t, ts.URL+"/ask?q=", &env), env
		}},
		{"bad timeout_ms", func() (int, errorEnvelope) {
			var env errorEnvelope
			return getJSON(t, ts.URL+"/ask?q=hi&timeout_ms=nope", &env), env
		}},
		{"invalid utf-8", func() (int, errorEnvelope) {
			var env errorEnvelope
			return getJSON(t, ts.URL+"/ask?q=%ff%fe", &env), env
		}},
		{"malformed json body", func() (int, errorEnvelope) {
			resp, err := http.Post(ts.URL+"/ask", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, env
		}},
	}
	for _, tc := range cases {
		status, env := tc.do()
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", tc.name, status)
		}
		if env.Error.Kind != KindValidation {
			t.Fatalf("%s: kind = %q, want validation", tc.name, env.Error.Kind)
		}
	}
	if got := s.Snapshot().Validation; got < int64(len(cases)) {
		t.Fatalf("validation counter = %d, want >= %d", got, len(cases))
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, oracleModel{}, Config{Workers: 1})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/ask", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header = %q", allow)
	}
}

// TestClientTimeoutMapsToTimeoutKind: a tiny timeout_ms against a
// parked model must come back 504/timeout, not hang.
func TestClientTimeoutMapsToTimeoutKind(t *testing.T) {
	block := newBlockModel()
	t.Cleanup(block.release)
	s, ts := newTestServer(t, block, Config{Workers: 2, DisableBreakers: true})
	var env errorEnvelope
	status := getJSON(t, ts.URL+"/ask?timeout_ms=50&q="+urlQuery(goodQuestion), &env)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if env.Error.Kind != KindTimeout {
		t.Fatalf("kind = %q, want timeout", env.Error.Kind)
	}
	if !strings.Contains(env.Error.Message, "deadline") {
		t.Fatalf("message = %q, want the tier deadline cause", env.Error.Message)
	}
	if got := s.Snapshot().Timeouts; got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

func TestHealthzReadyzStatsz(t *testing.T) {
	s, ts := newTestServer(t, oracleModel{}, Config{Workers: 3, Queue: 5})
	var health map[string]string
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, health)
	}
	var ready map[string]string
	if status := getJSON(t, ts.URL+"/readyz", &ready); status != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz = %d %v", status, ready)
	}
	if status := getJSON(t, ts.URL+"/ask?q="+urlQuery(goodQuestion), nil); status != http.StatusOK {
		t.Fatalf("ask status = %d", status)
	}
	var stats Stats
	if status := getJSON(t, ts.URL+"/statsz", &stats); status != http.StatusOK {
		t.Fatalf("statsz status = %d", status)
	}
	if stats.Capacity != 3 || stats.QueueCap != 5 {
		t.Fatalf("capacity/queue = %d/%d, want 3/5", stats.Capacity, stats.QueueCap)
	}
	if stats.Completed != 1 || stats.Accepted != 1 {
		t.Fatalf("completed/accepted = %d/%d, want 1/1", stats.Completed, stats.Accepted)
	}
	if stats.Tiers["oracle"] != 1 {
		t.Fatalf("tiers = %v, want oracle:1", stats.Tiers)
	}
	if stats.Breakers["oracle"] != "closed" {
		t.Fatalf("breakers = %v, want oracle closed", stats.Breakers)
	}
	if stats.Cache != nil || stats.Batcher != nil {
		t.Fatalf("cache/batcher sections must be absent when the features are off: %+v %+v", stats.Cache, stats.Batcher)
	}
	if s.Draining() {
		t.Fatal("fresh server must not be draining")
	}
	// The per-tenant section: a single-tenant server still carries a
	// row for its one tenant, mirroring the registry lifecycle.
	row, ok := stats.Tenants["patients"]
	if !ok || len(stats.Tenants) != 1 {
		t.Fatalf("tenants section = %+v, want exactly the patients row", stats.Tenants)
	}
	if row.State != "ready" || row.Version != 1 || row.Completed != 1 || row.Tiers["oracle"] != 1 {
		t.Fatalf("patients tenant row = %+v, want ready v1 with the one oracle completion", row)
	}
	if row.Breakers["oracle"] != "closed" {
		t.Fatalf("tenant breakers = %v, want oracle closed", row.Breakers)
	}

	// With the hot path on, /statsz grows cache and batcher sections of
	// the documented shape.
	_, ts2 := newTestServer(t, oracleModel{}, Config{CacheSize: 32, BatchMax: 4})
	for _, q := range []string{goodQuestion, goodQuestion} {
		if status := getJSON(t, ts2.URL+"/ask?q="+urlQuery(q), nil); status != http.StatusOK {
			t.Fatalf("ask status = %d", status)
		}
	}
	var hot Stats
	if status := getJSON(t, ts2.URL+"/statsz", &hot); status != http.StatusOK {
		t.Fatalf("statsz status = %d", status)
	}
	if hot.Cache == nil || hot.Batcher == nil {
		t.Fatalf("hot-path sections missing: cache=%+v batcher=%+v", hot.Cache, hot.Batcher)
	}
	if hot.Cache.Capacity != 32 || hot.Cache.Misses != 1 || hot.Cache.Hits != 1 || hot.Cache.Entries != 1 {
		t.Fatalf("cache section = %+v, want capacity 32 with 1 miss + 1 hit", hot.Cache)
	}
	if hot.Batcher.MaxBatch != 4 || hot.Batcher.Batches != 1 || hot.Batcher.Items != 1 || hot.Batcher.MeanBatch != 1 {
		t.Fatalf("batcher section = %+v, want one singleton flush", hot.Batcher)
	}
	// A lone miss finds the batcher idle: it decodes at once, with no
	// timer flush.
	if hot.Batcher.FlushIdle != 1 || hot.Batcher.FlushWait != 0 || hot.Batcher.FlushFull != 0 {
		t.Fatalf("batcher flush reasons = %+v, want the one idle flush", hot.Batcher)
	}
	if hotRow := hot.Tenants["patients"]; hotRow.Cache == nil || hotRow.Cache.Hits != 1 {
		t.Fatalf("tenant cache stats = %+v, want the hit mirrored per tenant", hot.Tenants["patients"])
	}
}

// TestServerRetriesTransientFailure: the first attempt fails (no
// output), the retry succeeds; the response and /statsz record one
// retry, and the backoff delay came from the seeded jitter stream.
func TestServerRetriesTransientFailure(t *testing.T) {
	var mu sync.Mutex
	var slept []time.Duration
	flaky := &flakyModel{failFirst: 1}
	tr := runtime.NewTranslator(testDB(t), flaky)
	s := New(tr, Config{Workers: 1, Retry: RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		Seed:        42,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var resp askResponse
	if status := getJSON(t, ts.URL+"/ask?q="+urlQuery(goodQuestion), &resp); status != http.StatusOK {
		t.Fatalf("status = %d, want 200 after retry", status)
	}
	if resp.Retries != 1 {
		t.Fatalf("retries = %d, want 1", resp.Retries)
	}
	if flaky.calls.Load() != 2 {
		t.Fatalf("model calls = %d, want 2", flaky.calls.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] < 5*time.Millisecond || slept[0] >= 10*time.Millisecond {
		t.Fatalf("backoff = %v, want one delay in [5ms, 10ms)", slept)
	}
	if got := s.Snapshot().Retries; got != 1 {
		t.Fatalf("statsz retries = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------
// RetryPolicy unit tests.
// ---------------------------------------------------------------------

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 7}.withDefaults()
	for a := 0; a < 12; a++ {
		d1, d2 := p.delay(3, a), p.delay(3, a)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", a, d1, d2)
		}
		// Exponential base capped at MaxDelay, jittered into [cap/2, cap).
		want := p.BaseDelay << uint(a)
		if want <= 0 || want > p.MaxDelay {
			want = p.MaxDelay
		}
		if d1 < want/2 || d1 >= want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", a, d1, want/2, want)
		}
	}
	if p.delay(3, 0) == p.delay(4, 0) && p.delay(3, 1) == p.delay(4, 1) && p.delay(3, 2) == p.delay(4, 2) {
		t.Fatal("different request ids share an identical jitter schedule")
	}
}

func TestRetryDoStopsOnNonRetryable(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	calls := 0
	permanent := errors.New("permanent")
	retries, err := p.Do(context.Background(), 1, func(error) bool { return false }, func() error {
		calls++
		return permanent
	})
	if calls != 1 || retries != 0 || !errors.Is(err, permanent) {
		t.Fatalf("calls=%d retries=%d err=%v, want a single attempt", calls, retries, err)
	}
}

func TestRetryDoExhaustsAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	calls := 0
	transient := errors.New("transient")
	retries, err := p.Do(context.Background(), 1, func(error) bool { return true }, func() error {
		calls++
		return transient
	})
	if calls != 3 || retries != 2 || !errors.Is(err, transient) {
		t.Fatalf("calls=%d retries=%d err=%v, want 3 attempts", calls, retries, err)
	}
}

func TestRetryDoHonorsContextDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) { cancel() }}
	calls := 0
	retries, err := p.Do(ctx, 1, func(error) bool { return true }, func() error {
		calls++
		return errors.New("transient")
	})
	if calls != 1 || retries != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls=%d retries=%d err=%v, want cancellation mid-backoff", calls, retries, err)
	}
}
