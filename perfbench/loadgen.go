package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/serve"
)

// now is the benchmark's one wall-clock read: every latency, deadline
// and schedule in the benchmark is measured against it.
func now() time.Time {
	return time.Now() //lint:allow determinism the load generator and its latency measurement are wall-clock by nature; no answer depends on it
}

// sleepUntil blocks until t or until ctx is done.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := t.Sub(now())
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func msSince(t time.Time) float64 { return float64(now().Sub(t)) / float64(time.Millisecond) }

// askBody is the part of a 200 /ask response the checks read.
type askBody struct {
	SQL        string     `json:"sql"`
	Tier       string     `json:"tier"`
	TierErrors []string   `json:"tier_errors"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
}

// errorBody is an error response.
type errorBody struct {
	Error struct {
		Kind    serve.ErrorKind `json:"kind"`
		Message string          `json:"message"`
	} `json:"error"`
}

// answer is one /ask exchange as the client saw it. A run holds tens of
// thousands until the checks run after the timed phases, so it keeps a
// digest of the rows, not the rows, and shares repeated strings.
type answer struct {
	Q      Question
	Status int // 0 on a transport error
	// Err is a transport error, an undecodable body, or the body of an
	// error response of an unexpected kind.
	Err string
	// Kind is an error response's kind.
	Kind serve.ErrorKind
	// Tier, SQL, Rows (the row count) and RowsHash (hashRows of the
	// columns and rows) are what a 200 said.
	Tier, SQL string
	Rows      int
	RowsHash  [sha256.Size]byte
	// BodyHash is the SHA-256 of the response body.
	BodyHash [sha256.Size]byte
	// BreakerOpen reports that the request met an open tier breaker.
	BreakerOpen bool
	// LatMS is the latency in milliseconds: from the request's due
	// time in an open-loop phase, from its send time in a closed loop.
	LatMS float64
	// Done is when the answer arrived, from the start of its phase.
	Done time.Duration
}

// client is the benchmark's HTTP side: at most conns keep-alive
// connections to one server.
type client struct {
	http  *http.Client
	base  string
	conns int

	mu   sync.Mutex
	strs map[string]string // interned tiers and SQL
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		http: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, conns: conns,
		strs: map[string]string{},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// intern returns the client's copy of s, so the answers to repeated
// questions share one string.
func (c *client) intern(s string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.strs[s]; ok {
		return v
	}
	c.strs[s] = s
	return s
}

// do sends one request and returns its status and body.
func (c *client) do(ctx context.Context, method, path string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	return resp.StatusCode, data, rerr
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	status, data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, data)
	}
	return json.Unmarshal(data, v)
}

// breakerOpen marks the text of a tier skipped by an open breaker.
var breakerOpen = serve.ErrBreakerOpen.Error()

// ask sends one question to the tenant's /ask endpoint.
func (c *client) ask(ctx context.Context, q Question) answer {
	a := answer{Q: q}
	status, data, err := c.do(ctx, http.MethodGet, "/v1/"+tenant+"/ask?q="+url.QueryEscape(q.NL), nil)
	if err != nil {
		a.Err = err.Error()
		return a
	}
	a.Status, a.BodyHash = status, sha256.Sum256(data)
	if status != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			a.Err = fmt.Sprintf("undecodable %d body: %v", status, err)
			return a
		}
		a.Kind = eb.Error.Kind
		a.BreakerOpen = strings.Contains(eb.Error.Message, breakerOpen)
		if a.Kind != serve.KindTierExhausted && a.Kind != serve.KindValidation {
			a.Err = string(data)
		}
		return a
	}
	var b askBody
	if err := json.Unmarshal(data, &b); err != nil {
		a.Err = "undecodable 200 body: " + err.Error()
		return a
	}
	a.Tier, a.SQL = c.intern(b.Tier), c.intern(b.SQL)
	a.Rows, a.RowsHash = len(b.Rows), hashRows(b.Columns, b.Rows)
	for _, e := range b.TierErrors {
		a.BreakerOpen = a.BreakerOpen || strings.Contains(e, breakerOpen)
	}
	return a
}

// Schedule returns n open-loop arrival offsets at rate per second:
// arrival i falls at a seeded uniform point of the i-th period. The
// offered rate is exact and bursts stay bounded (at most two arrivals
// per period), so run-to-run latency differences come from the
// server, not from how bursty one seed's Poisson draw happened to be.
func Schedule(n int, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return out
}

// openLoop sends qs[i] at offset offs[i] from the phase start,
// whether or not earlier requests have finished, over at most c.conns
// connections. A request that finds every connection busy waits in the
// client, and that wait counts: latency runs from the due time, so
// queueing anywhere is visible. late[i] is how far behind its due time
// the generator itself handed request i to a connection worker.
func (c *client) openLoop(ctx context.Context, qs []Question, offs []time.Duration) (answers []answer, late []float64, err error) {
	answers = make([]answer, len(qs))
	late = make([]float64, len(qs))
	jobs := make(chan int, len(qs))
	start := now()
	err = par.MapCtx(ctx, c.conns+1, c.conns+1, func(w int) {
		if w == 0 {
			defer close(jobs)
			for i, off := range offs {
				due := start.Add(off)
				if sleepUntil(ctx, due) != nil {
					return
				}
				late[i] = msSince(due)
				jobs <- i
			}
			return
		}
		for i := range jobs {
			a := c.ask(ctx, qs[i])
			a.LatMS = msSince(start.Add(offs[i]))
			answers[i] = a
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	return answers, late, err
}

// closedLoop keeps every connection busy with the next question of qs
// until d has passed or qs runs out. It returns the answers and the
// phase's elapsed time.
func (c *client) closedLoop(ctx context.Context, qs []Question, d time.Duration) ([]answer, time.Duration, error) {
	slots := make([]answer, len(qs))
	var next, done atomic.Int64
	start := now()
	end := start.Add(d)
	err := par.MapCtx(ctx, c.conns, c.conns, func(int) {
		for now().Before(end) && ctx.Err() == nil {
			i := next.Add(1) - 1
			if i >= int64(len(qs)) {
				return
			}
			sent := now()
			a := c.ask(ctx, qs[i])
			a.LatMS = msSince(sent)
			a.Done = now().Sub(start)
			slots[i] = a
			done.Add(1)
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	return slots[:done.Load()], now().Sub(start), err
}
