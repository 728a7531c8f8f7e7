package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/models"
)

// batchOracle answers like the oracle and counts which decode path
// was used, so tests can prove the batcher really batches.
type batchOracle struct {
	single, batched atomic.Int64
}

func (*batchOracle) Name() string           { return "oracle" }
func (*batchOracle) Train([]models.Example) {}
func (m *batchOracle) Translate(nl, st []string) []string {
	m.single.Add(1)
	return strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
}
func (m *batchOracle) TranslateBatch(nls [][]string, st []string) [][]string {
	m.batched.Add(1)
	out := make([][]string, len(nls))
	for i := range nls {
		out[i] = strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE")
	}
	return out
}

// TestCacheServesConstantVariations: the tentpole property end to
// end — after one decode, every constant variation of the question
// shape is a cache hit that still carries its own constant in the
// final SQL, and the model is never consulted again.
func TestCacheServesConstantVariations(t *testing.T) {
	model := &batchOracle{}
	s, ts := newTestServer(t, model, Config{CacheSize: 64})

	var first askResponse
	if code := getJSON(t, ts.URL+"/ask?q="+urlQuery(goodQuestion), &first); code != http.StatusOK {
		t.Fatalf("cold ask = %d", code)
	}
	if !strings.Contains(first.SQL, "80") {
		t.Fatalf("cold SQL = %q", first.SQL)
	}
	decodes := model.single.Load() + model.batched.Load()

	// Same shape, different constant: must hit, must restore 45.
	var warm askResponse
	if code := getJSON(t, ts.URL+"/ask?q="+urlQuery("show the names of all patients with age 45"), &warm); code != http.StatusOK {
		t.Fatalf("warm ask = %d", code)
	}
	if !strings.Contains(warm.SQL, "45") {
		t.Fatalf("warm SQL must carry the new constant: %q", warm.SQL)
	}
	if got := model.single.Load() + model.batched.Load(); got != decodes {
		t.Fatalf("cache hit still decoded: %d → %d model calls", decodes, got)
	}
	st := s.Snapshot()
	if st.Cache == nil || st.Cache.Hits < 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss then hits", st.Cache)
	}
}

// TestCacheCoalescesConcurrentMisses: N concurrent requests for one
// cold key pay exactly one model call (singleflight through the full
// HTTP stack).
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	model := newBlockModel()
	s, ts := newTestServer(t, model, Config{CacheSize: 64, Workers: 8, Queue: 16})

	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = getJSON(t, ts.URL+"/ask?q="+urlQuery(goodQuestion), nil)
		}(i)
	}
	// Wait until the leader is inside the model, then let it finish.
	deadline := time.Now().Add(2 * time.Second)
	for model.calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	model.release()
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
	}
	if got := model.calls.Load(); got != 1 {
		t.Fatalf("model decoded %d times for %d concurrent identical questions, want 1", got, n)
	}
	st := s.Snapshot()
	if st.Cache.Misses != 1 || st.Cache.Coalesced+st.Cache.Hits != n-1 {
		t.Fatalf("cache stats = %+v, want 1 miss and %d shared", st.Cache, n-1)
	}
}

// gatedModel decodes through inner, except that a decode including
// the question "hold" reports on started and then blocks until gate
// is closed: the way a test keeps a decode in flight.
type gatedModel struct {
	inner   models.BatchTranslator
	started chan struct{}
	gate    chan struct{}
}

func newGatedModel(inner models.BatchTranslator) *gatedModel {
	return &gatedModel{inner: inner, started: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (*gatedModel) Name() string           { return "gated" }
func (*gatedModel) Train([]models.Example) {}
func (m *gatedModel) hold(nl []string) {
	if len(nl) > 0 && nl[0] == "hold" {
		m.started <- struct{}{}
		<-m.gate
	}
}
func (m *gatedModel) Translate(nl, st []string) []string {
	m.hold(nl)
	return m.inner.Translate(nl, st)
}
func (m *gatedModel) TranslateBatch(nls [][]string, st []string) [][]string {
	for _, nl := range nls {
		m.hold(nl)
	}
	return m.inner.TranslateBatch(nls, st)
}

// scheduled is one call of a batcher's injected after: the delay it
// asked for and the flush it would run.
type scheduled struct {
	d time.Duration
	f func()
}

// manualBatcher builds a batcher whose flushes are handed to the test
// on the returned channel instead of to a clock.
func manualBatcher(model models.Translator, maxBatch int) (*Batcher, chan scheduled) {
	b := NewBatcher(model, []string{"patients"}, BatcherConfig{MaxBatch: maxBatch, MaxWait: time.Hour})
	sched := make(chan scheduled, 16)
	b.after = func(d time.Duration, f func()) *time.Timer {
		sched <- scheduled{d, f}
		return time.NewTimer(time.Hour)
	}
	return b, sched
}

type doResult struct {
	out []string
	err error
}

// goDo runs b.Do for question q on its own goroutine.
func goDo(b *Batcher, ctx context.Context, q string) chan doResult {
	ch := make(chan doResult, 1)
	go func() {
		out, err := b.Do(ctx, []string{q})
		ch <- doResult{out, err}
	}()
	return ch
}

// startHeld starts a lone "hold" request — it finds the batcher idle,
// so it decodes at once — and returns once its decode is in flight.
func startHeld(t *testing.T, b *Batcher, m *gatedModel) chan doResult {
	t.Helper()
	ch := goDo(b, context.Background(), "hold")
	select {
	case <-m.started:
	case <-time.After(2 * time.Second):
		t.Fatal("held request never started decoding")
	}
	return ch
}

// waitGathered waits until the gathering batch holds n requests.
func waitGathered(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		got := 0
		if b.cur != nil {
			got = len(b.cur.items)
		}
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gathering batch holds %d requests, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// nextScheduled returns the next flush the batcher scheduled.
func nextScheduled(t *testing.T, sched chan scheduled, want time.Duration) func() {
	t.Helper()
	select {
	case s := <-sched:
		if s.d != want {
			t.Fatalf("batcher scheduled a flush after %v, want %v", s.d, want)
		}
		return s.f
	case <-time.After(2 * time.Second):
		t.Fatalf("batcher never scheduled the %v flush", want)
		return nil
	}
}

// requireNothingScheduled asserts that no flush is pending.
func requireNothingScheduled(t *testing.T, sched chan scheduled) {
	t.Helper()
	select {
	case s := <-sched:
		t.Fatalf("unexpected flush scheduled after %v", s.d)
	default:
	}
}

// requirePending asserts that a gathered request has not been answered.
func requirePending(t *testing.T, what string, ch chan doResult) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s answered before its batch flushed", what)
	case <-time.After(10 * time.Millisecond):
	}
}

// requireDecoded asserts that a request was answered with a decode.
func requireDecoded(t *testing.T, what string, ch chan doResult) {
	t.Helper()
	if r := <-ch; r.err != nil || len(r.out) == 0 {
		t.Fatalf("%s = %v, %v; want a decode", what, r.out, r.err)
	}
}

// TestBatcherIdleDecodesAtOnce: a request that finds the batcher idle
// decodes at once and never arms a timer, however many arrive one
// after another.
func TestBatcherIdleDecodesAtOnce(t *testing.T) {
	model := &batchOracle{}
	b, sched := manualBatcher(model, 8)
	for i := 0; i < 3; i++ {
		if out, err := b.Do(context.Background(), []string{"q", fmt.Sprint(i)}); err != nil || len(out) == 0 {
			t.Fatalf("lone request %d = %v, %v", i, out, err)
		}
	}
	requireNothingScheduled(t, sched)
	st := b.Snapshot()
	if st.Batches != 3 || st.Items != 3 || st.FlushIdle != 3 || st.FlushWait != 0 || st.FlushFull != 0 {
		t.Fatalf("stats = %+v, want three idle flushes", st)
	}
	if model.single.Load() != 3 || model.batched.Load() != 0 {
		t.Fatalf("decodes: single=%d batched=%d, want three single", model.single.Load(), model.batched.Load())
	}
}

// TestBatcherFlushOnFinish: requests arriving during an in-flight
// decode gather, and the batch flushes as that decode finishes —
// scheduled through after(0) — without waiting out MaxWait.
func TestBatcherFlushOnFinish(t *testing.T) {
	inner := &batchOracle{}
	model := newGatedModel(inner)
	b, sched := manualBatcher(model, 8)

	held := startHeld(t, b, model)
	r1 := goDo(b, context.Background(), "q1")
	timer := nextScheduled(t, sched, time.Hour)
	r2 := goDo(b, context.Background(), "q2")
	waitGathered(t, b, 2)
	requirePending(t, "gathered request", r1)

	close(model.gate)
	requireDecoded(t, "held request", held)
	onFinish := nextScheduled(t, sched, 0)
	requirePending(t, "gathered request", r2)
	onFinish()
	requireDecoded(t, "gathered request 1", r1)
	requireDecoded(t, "gathered request 2", r2)
	timer() // the MaxWait flush lost the race and must do nothing
	requireNothingScheduled(t, sched)

	st := b.Snapshot()
	if st.Batches != 2 || st.Items != 3 || st.FlushIdle != 2 || st.FlushWait != 0 || st.FlushFull != 0 {
		t.Fatalf("stats = %+v, want the held decode and one gather, both idle flushes", st)
	}
	if inner.batched.Load() != 1 {
		t.Fatalf("batched decodes = %d, want the gather decoded as one batch", inner.batched.Load())
	}
}

// TestBatcherFlushWait: MaxWait still bounds the gather — when the
// timer fires before the in-flight decode finishes, the partial batch
// decodes alongside it.
func TestBatcherFlushWait(t *testing.T) {
	model := newGatedModel(&batchOracle{})
	b, sched := manualBatcher(model, 8)

	held := startHeld(t, b, model)
	r := goDo(b, context.Background(), "q")
	timer := nextScheduled(t, sched, time.Hour)
	waitGathered(t, b, 1)
	requirePending(t, "gathered request", r)
	timer()
	requireDecoded(t, "timer-flushed request", r)

	close(model.gate)
	requireDecoded(t, "held request", held)
	// Both decodes have finished and nothing is gathering: no flush.
	requireNothingScheduled(t, sched)
	st := b.Snapshot()
	if st.Batches != 2 || st.Items != 2 || st.FlushWait != 1 || st.FlushIdle != 1 || st.FlushFull != 0 {
		t.Fatalf("stats = %+v, want one idle and one timer flush", st)
	}
}

// TestBatcherFlushFull: the request that fills a gathering batch
// flushes it at once, on its own goroutine, while the decode it
// gathered behind is still in flight.
func TestBatcherFlushFull(t *testing.T) {
	inner := &batchOracle{}
	model := newGatedModel(inner)
	b, sched := manualBatcher(model, 4)

	held := startHeld(t, b, model)
	var rs []chan doResult
	for i := 0; i < 4; i++ {
		rs = append(rs, goDo(b, context.Background(), fmt.Sprint("q", i)))
		if i == 0 {
			nextScheduled(t, sched, time.Hour)
		}
	}
	for i, r := range rs {
		requireDecoded(t, fmt.Sprint("row ", i), r)
	}
	if inner.batched.Load() != 1 {
		t.Fatalf("batched decodes = %d, want one full batch", inner.batched.Load())
	}
	close(model.gate)
	requireDecoded(t, "held request", held)
	requireNothingScheduled(t, sched)
	st := b.Snapshot()
	if st.Batches != 2 || st.Items != 5 || st.FlushFull != 1 || st.FlushIdle != 1 || st.FlushWait != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanBatch != 2.5 {
		t.Fatalf("mean batch = %v, want 2.5", st.MeanBatch)
	}
}

// TestBatcherCancellation: a request cancelled while gathered leaves
// immediately and the flush decodes only the live slots.
func TestBatcherCancellation(t *testing.T) {
	model := newGatedModel(&batchOracle{})
	b, sched := manualBatcher(model, 8)

	held := startHeld(t, b, model)
	ctx, cancel := context.WithCancel(context.Background())
	gone := goDo(b, ctx, "dead")
	nextScheduled(t, sched, time.Hour)
	live := goDo(b, context.Background(), "alive")
	waitGathered(t, b, 2)

	cancel()
	if r := <-gone; r.err != context.Canceled {
		t.Fatalf("cancelled Do = %v, want context.Canceled", r.err)
	}
	close(model.gate)
	requireDecoded(t, "held request", held)
	nextScheduled(t, sched, 0)()
	requireDecoded(t, "live batchmate", live)
	st := b.Snapshot()
	if st.Cancelled != 1 || st.Items != 2 {
		t.Fatalf("stats = %+v, want 1 cancelled + 2 live items", st)
	}
	// A pre-cancelled context never joins a batch at all.
	if _, err := b.Do(ctx, []string{"x"}); err != context.Canceled {
		t.Fatalf("pre-cancelled Do = %v", err)
	}
}

// TestBatcherPanicContained: a panicking model fails the lone request
// and every batchmate with an error instead of killing their
// goroutines, and the batcher keeps serving afterwards.
func TestBatcherPanicContained(t *testing.T) {
	model := newGatedModel(panicTranslator{})
	b, sched := manualBatcher(model, 8)
	requirePanicked := func(what string, r doResult) {
		t.Helper()
		if r.err == nil || !strings.Contains(r.err.Error(), "panicked") {
			t.Fatalf("%s err = %v, want contained panic", what, r.err)
		}
	}

	held := startHeld(t, b, model)
	r1 := goDo(b, context.Background(), "q1")
	nextScheduled(t, sched, time.Hour)
	r2 := goDo(b, context.Background(), "q2")
	waitGathered(t, b, 2)
	close(model.gate)
	requirePanicked("held request", <-held)
	nextScheduled(t, sched, 0)()
	requirePanicked("batchmate 1", <-r1)
	requirePanicked("batchmate 2", <-r2)

	// The panics retired their decodes: the next lone request finds
	// the batcher idle again.
	out, err := b.Do(context.Background(), []string{"q3"})
	requirePanicked("lone request", doResult{out, err})
	requireNothingScheduled(t, sched)
}

// panicTranslator panics on every decode path.
type panicTranslator struct{}

func (panicTranslator) Name() string           { return "panic" }
func (panicTranslator) Train([]models.Example) {}
func (panicTranslator) Translate(nl, st []string) []string {
	panic("poisoned decode")
}
func (panicTranslator) TranslateBatch(nls [][]string, st []string) [][]string {
	panic("poisoned batch decode")
}

// TestServerBatchesDistinctQuestions: with the cache deduplicating
// identical questions, distinct concurrent questions share one
// batched forward pass through the full server stack.
func TestServerBatchesDistinctQuestions(t *testing.T) {
	model := &batchOracle{}
	s, ts := newTestServer(t, model, Config{
		CacheSize: 64,
		BatchMax:  3,
		BatchWait: 200 * time.Millisecond,
		Workers:   8,
		Queue:     16,
	})
	// Distinct question *shapes*: constant variations alone would share
	// an anonymized cache key and coalesce instead of batching.
	questions := []string{
		"show the names of all patients with age 80",
		"show the diagnosis of all patients with age 80",
		"show the gender of all patients with age 80",
	}
	var wg sync.WaitGroup
	for _, q := range questions {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			var resp askResponse
			if code := getJSON(t, ts.URL+"/ask?q="+urlQuery(q), &resp); code != http.StatusOK {
				t.Errorf("ask(%q) = %d", q, code)
			}
		}(q)
	}
	wg.Wait()
	st := s.Snapshot()
	if st.Batcher == nil || st.Batcher.Items == 0 {
		t.Fatalf("batcher stats = %+v, want recorded items", st.Batcher)
	}
	if model.batched.Load() == 0 && st.Batcher.Batches == st.Batcher.Items {
		t.Logf("note: requests never overlapped; batching degenerated to singletons (stats %+v)", st.Batcher)
	}
	if total := st.Batcher.Items; total != 3 {
		t.Fatalf("batcher carried %d items, want 3 (distinct questions are not coalesced by the cache)", total)
	}
	if st.Cache.Misses != 3 {
		t.Fatalf("cache misses = %d, want 3 distinct keys", st.Cache.Misses)
	}
}

// TestTranslateTraceCacheField: /translate reports the cache outcome
// in its trace-backed response... the Trace.Cache field feeds the
// tier trace; verify via a direct translate call.
func TestTranslateTraceCacheField(t *testing.T) {
	model := &batchOracle{}
	s, _ := newTestServer(t, model, Config{CacheSize: 64})
	_, trace, err := s.translate(context.Background(), s.defaultVersion(), goodQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Cache != cache.Miss.String() {
		t.Fatalf("cold trace.Cache = %q, want miss", trace.Cache)
	}
	_, trace, err = s.translate(context.Background(), s.defaultVersion(), goodQuestion)
	if err != nil || trace.Cache != cache.Hit.String() {
		t.Fatalf("warm trace.Cache = %q (err %v), want hit", trace.Cache, err)
	}
	if !strings.Contains(trace.String(), "cache:      hit") {
		t.Fatalf("trace rendering missing cache line:\n%s", trace.String())
	}
}
