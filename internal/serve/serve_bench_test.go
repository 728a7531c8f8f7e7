package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
)

// ---------------------------------------------------------------------
// Fixture: a tiny trained seq2seq over the patients schema. Training
// uses the real serving-time schema serialization so decode inputs at
// bench time match training exactly.
// ---------------------------------------------------------------------

func benchExamples() []models.Example {
	st := models.SchemaTokens(patients.Schema())
	mk := func(nl, sql string) models.Example {
		return models.Example{NL: strings.Fields(nl), SQL: strings.Fields(sql), Schema: st}
	}
	return []models.Example{
		mk("show the name of patient with age @PATIENTS.AGE", "SELECT name FROM patients WHERE age = @PATIENTS.AGE"),
		mk("show the diagnosis of patient with age @PATIENTS.AGE", "SELECT diagnosis FROM patients WHERE age = @PATIENTS.AGE"),
		mk("how many patient be there", "SELECT COUNT ( * ) FROM patients"),
		mk("what be the average age of patient", "SELECT AVG ( age ) FROM patients"),
		mk("list patient with diagnosis @PATIENTS.DIAGNOSIS", "SELECT * FROM patients WHERE diagnosis = @PATIENTS.DIAGNOSIS"),
	}
}

var (
	benchModelOnce sync.Once
	benchModelVal  *models.Seq2Seq
)

// benchSeq2Seq trains the fixture model once per test binary.
func benchSeq2Seq() *models.Seq2Seq {
	benchModelOnce.Do(func() {
		cfg := models.DefaultSeq2SeqConfig()
		cfg.Epochs = 150
		cfg.EmbDim = 24
		cfg.HidDim = 48
		m := models.NewSeq2Seq(cfg)
		m.Train(benchExamples())
		benchModelVal = m
	})
	return benchModelVal
}

// benchWorkload mixes the trained shapes with many constant
// variations: with the cache on, each shape decodes once and every
// variation after that is a hit.
func benchWorkload() []string {
	ages := []int{80, 34, 45, 67, 72, 29, 55, 61}
	var qs []string
	for _, a := range ages {
		qs = append(qs,
			fmt.Sprintf("show the name of patient with age %d", a),
			fmt.Sprintf("show the diagnosis of patient with age %d", a))
	}
	qs = append(qs, "how many patient be there", "what be the average age of patient")
	return qs
}

// ---------------------------------------------------------------------
// Measurement core: drive the handler in-process (no sockets), record
// per-request latency, summarize.
// ---------------------------------------------------------------------

type hotMetrics struct {
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	QPS    float64 `json:"qps"`
	Failed int     `json:"-"`
}

// measureServe issues total /translate requests from `clients`
// concurrent goroutines against a fresh server over the fixture DB
// and returns the latency/throughput summary. Each variant gets its
// own runtime.Translator because New wires hooks into it.
func measureServe(tb testing.TB, model models.Translator, cfg Config, questions []string, total, clients int) hotMetrics {
	tb.Helper()
	db, err := patients.Database()
	if err != nil {
		tb.Fatal(err)
	}
	tr := runtime.NewTranslator(db, model)
	s := New(tr, cfg)
	h := s.Handler()

	do := func(q string) (time.Duration, int) {
		req := httptest.NewRequest(http.MethodGet, "/translate?q="+urlQuery(q), nil)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		return time.Since(t0), w.Code
	}
	// Warm: one request per distinct question, so a cache-on run
	// measures the steady state and a cache-off run is unaffected
	// (every request decodes regardless).
	for _, q := range questions {
		if _, code := do(q); code != http.StatusOK {
			tb.Fatalf("warmup %q = %d", q, code)
		}
	}

	durations := make([]time.Duration, total)
	var failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				d, code := do(questions[i%int64(len(questions))])
				durations[i] = d
				if code != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(durations, func(a, b int) bool { return durations[a] < durations[b] })
	pct := func(p float64) float64 {
		i := int(p * float64(total-1))
		return float64(durations[i].Nanoseconds())
	}
	return hotMetrics{
		P50NS:  pct(0.50),
		P99NS:  pct(0.99),
		QPS:    float64(total) / elapsed.Seconds(),
		Failed: int(failed.Load()),
	}
}

// benchVariants is the cache × batch sweep shared by the benchmark
// and the regression gate.
func benchVariants() []struct {
	Name string
	Cfg  Config
} {
	base := func() Config { return Config{Workers: 8, Queue: 1 << 16} }
	withCache := func(c Config) Config { c.CacheSize = 1024; return c }
	withBatch := func(c Config, n int) Config { c.BatchMax = n; c.BatchWait = time.Millisecond; return c }
	withCritic := func(c Config) Config { c.Critic = true; return c }
	return []struct {
		Name string
		Cfg  Config
	}{
		{"cache=off/batch=off", base()},
		{"cache=off/batch=8", withBatch(base(), 8)},
		{"cache=on/batch=off", withCache(base())},
		{"cache=on/batch=8", withBatch(withCache(base()), 8)},
		{"cache=off/critic=on", withCritic(base())},
		{"cache=on/critic=on", withCritic(withCache(base()))},
	}
}

// BenchmarkServe sweeps the inference hot path: cache on/off × batch
// size × client concurrency, reporting QPS and latency percentiles.
// This is the source of BENCH_serve.json (each row the median of the
// five runs):
//
//	go test -bench BenchmarkServe -benchtime 300x -count 5 -run '^$' ./internal/serve/
func BenchmarkServe(b *testing.B) {
	model := benchSeq2Seq()
	questions := benchWorkload()
	for _, v := range benchVariants() {
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/clients=%d", v.Name, clients), func(b *testing.B) {
				m := measureServe(b, model, v.Cfg, questions, b.N, clients)
				if m.Failed > 0 {
					b.Fatalf("%d/%d requests failed", m.Failed, b.N)
				}
				b.ReportMetric(m.QPS, "qps")
				b.ReportMetric(m.P50NS, "p50-ns")
				b.ReportMetric(m.P99NS, "p99-ns")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Regression gate.
// ---------------------------------------------------------------------

// benchBaseline mirrors BENCH_serve.json.
type benchBaseline struct {
	Gates struct {
		// CacheHitSpeedupMin is the floor on cold-p50 / warm-hit-p50.
		CacheHitSpeedupMin float64 `json:"cache_hit_speedup_min"`
		// BatchMeanMin is the floor on the mean decode batch size under
		// 8 concurrent clients of distinct shapes with batching on.
		BatchMeanMin float64 `json:"batch_mean_min"`
		// CriticP50OverheadMax is the ceiling on critic-on cold p50 /
		// critic-off cold p50: how much latency the execution-guided
		// validation layer may add to an uncached decode.
		CriticP50OverheadMax float64 `json:"critic_p50_overhead_max"`
		// ToleranceFrac is the +-fraction applied to the floors, per
		// the serving bench contract.
		ToleranceFrac float64 `json:"tolerance_frac"`
	} `json:"gates"`
}

// TestServeBenchGate is the CI serve-bench gate: a short-form
// measurement of the hot path compared against the floors checked in
// to BENCH_serve.json (with its tolerance). Machine-independent
// ratios, not wall-clock, are gated. Opt in with DBPAL_BENCH_GATE=1 —
// it measures latency distributions and would be noise under -race or
// a loaded laptop.
func TestServeBenchGate(t *testing.T) {
	if os.Getenv("DBPAL_BENCH_GATE") != "1" {
		t.Skip("set DBPAL_BENCH_GATE=1 to run the serve bench gate")
	}
	raw, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatalf("baseline missing: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline unreadable: %v", err)
	}
	tol := base.Gates.ToleranceFrac
	if tol <= 0 || tol >= 1 {
		t.Fatalf("baseline tolerance_frac = %v, want (0,1)", tol)
	}
	model := benchSeq2Seq()
	questions := benchWorkload()

	// Cold decode p50: no cache, serial clients.
	cold := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16}, questions, 120, 1)
	// Warm hit p50: cache on (measureServe pre-warms every key).
	warm := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16, CacheSize: 1024}, questions, 2000, 1)
	if cold.Failed+warm.Failed > 0 {
		t.Fatalf("failed requests: cold=%d warm=%d", cold.Failed, warm.Failed)
	}
	speedup := cold.P50NS / warm.P50NS
	if floor := base.Gates.CacheHitSpeedupMin * (1 - tol); speedup < floor {
		t.Errorf("cache-hit speedup = %.1fx (cold p50 %.0fns / hit p50 %.0fns), below gate %.1fx",
			speedup, cold.P50NS, warm.P50NS, floor)
	}

	// Critic overhead: every cold decode additionally pays the static
	// checks and a sandboxed dry-run. The ratio over the critic-off
	// cold p50 is gated so the validation layer cannot quietly eat
	// the hot path. The critic's cost is fixed while the decode it is
	// divided by is small, so one back-to-back pair swings with
	// machine noise: critic-off and critic-on cold runs alternate in
	// paired rounds, and the median of the per-round ratios is gated.
	const criticRounds = 5
	ratios := make([]float64, criticRounds)
	for r := range ratios {
		off := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16}, questions, 120, 1)
		on := measureServe(t, model, Config{Workers: 8, Queue: 1 << 16, Critic: true}, questions, 120, 1)
		if off.Failed+on.Failed > 0 {
			t.Fatalf("failed requests in critic round %d: off=%d on=%d", r, off.Failed, on.Failed)
		}
		ratios[r] = on.P50NS / off.P50NS
	}
	sort.Float64s(ratios)
	overhead := ratios[criticRounds/2]
	if ceil := base.Gates.CriticP50OverheadMax * (1 + tol); overhead > ceil {
		t.Errorf("critic p50 overhead = %.2fx (median of paired rounds %.2f), above gate %.2fx",
			overhead, ratios, ceil)
	}

	// Batching efficacy: 8 clients, distinct shapes per request, no
	// cache so every request decodes; the mean batch must clear the
	// floor.
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	tr := runtime.NewTranslator(db, model)
	s := New(tr, Config{Workers: 8, Queue: 1 << 16, BatchMax: 8, BatchWait: 2 * time.Millisecond})
	h := s.Handler()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := questions[(c+2*i)%len(questions)]
				req := httptest.NewRequest(http.MethodGet, "/translate?q="+urlQuery(q), nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("ask(%q) = %d", q, w.Code)
				}
			}
		}(c)
	}
	wg.Wait()
	bst := s.Snapshot().Batcher
	if bst == nil || bst.Items != 200 {
		t.Fatalf("batcher stats = %+v, want all 200 decodes through the batcher", bst)
	}
	if floor := base.Gates.BatchMeanMin * (1 - tol); bst.MeanBatch < floor {
		t.Errorf("mean batch = %.2f, below gate %.2f (stats %+v)", bst.MeanBatch, floor, bst)
	}
	t.Logf("cache-hit speedup %.1fx (cold p50 %.0fns, hit p50 %.0fns); critic p50 overhead %.2fx (paired rounds %.2f); mean batch %.2f",
		speedup, cold.P50NS, warm.P50NS, overhead, ratios, bst.MeanBatch)
}
