// Package serve is the hardened concurrent serving layer over the
// runtime phase: it exposes a registry of runtime.Translator tenants
// as a long-lived net/http service that stays correct and responsive
// under overload, slow models, and injected faults. The robustness
// stack, outside-in:
//
//   - Admission control: a per-tenant concurrency limiter
//     (par.Limiter) sized to the worker count plus a bounded waiting
//     room. When both are full, the request is shed with 429 +
//     Retry-After instead of queueing unboundedly — under overload,
//     latency stays bounded, the queue never grows past its cap, and
//     one tenant's stampede cannot starve another's slots.
//   - Per-request deadlines: every admitted request runs under a
//     context deadline that propagates into the translator's
//     Deadline/Fallbacks chain; expiry is a typed timeout response,
//     and the abandoned tier costs at most a goroutine, never a slot.
//   - Circuit breakers: one Breaker per translator tier per model
//     version, plugged into the chain as a runtime.TierHook. A
//     persistently failing or slow primary trips open and is skipped
//     without paying its deadline; after a cooldown a half-open probe
//     decides recovery. A version swap starts the new model with
//     fresh, closed breakers.
//   - Retry: transient chain failures are retried with capped
//     exponential backoff and seeded jitter (each tenant jitters on
//     its own derived seed) — never validation errors, which cannot
//     succeed on resubmission.
//   - Graceful drain: Drain flips /readyz to 503 so load balancers
//     stop routing; Shutdown then cancels background onboarding
//     (leaving resumable checkpoints), stops accepting, and lets
//     in-flight requests finish under the caller's drain deadline.
//
// Tenant endpoints: /v1/{schema}/ask (translate + execute) and
// /v1/{schema}/translate (translate only), plus the legacy /ask and
// /translate which accept ?schema= and default to the first installed
// tenant. Admin: POST /schemas onboards a new schema in the background
// (generate→train→eval→swap, with onboarding status), GET /schemas
// lists tenants, GET/DELETE /schemas/{name} inspects or removes one.
// Probes: /healthz (liveness), /readyz (readiness, drain-aware),
// /statsz (JSON Stats snapshot with a per-tenant section). Failures
// use the ErrorKind taxonomy in errors.go.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/boot"
	"repro/internal/cache"
	"repro/internal/critic"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/sqlast"
)

// Config sizes the robustness stack. The zero value gets defaults
// suitable for tests and small deployments.
type Config struct {
	// Workers bounds concurrent translations per tenant (0 = NumCPU).
	Workers int
	// Queue is the per-tenant waiting-room size: requests beyond
	// Workers that may wait for a slot before shedding starts (0 =
	// 2×Workers, negative = no waiting room).
	Queue int
	// Timeout is the default per-request deadline (0 = 10s). Clients
	// may lower it per request with timeout_ms, never raise it.
	Timeout time.Duration
	// Retry is the transient-failure retry policy (zero = no retry).
	// The default tenant jitters on Retry.Seed itself; every other
	// tenant derives a disjoint jitter stream from its name.
	Retry RetryPolicy
	// Breaker parameterizes the per-tier circuit breakers; set
	// DisableBreakers to run without them.
	Breaker         BreakerConfig
	DisableBreakers bool
	// CacheSize enables the anonymization-keyed result cache with this
	// many entries per model version (0 = no cache). Keys are the
	// schema name plus the lemmatized anonymized question, so every
	// constant variation of a query shape shares one cached decode and
	// no two tenants can ever share an entry; CacheShards optionally
	// overrides the shard count (0 = the cache package default).
	CacheSize   int
	CacheShards int
	// BatchMax enables cross-request microbatching when >= 2: up to
	// BatchMax concurrent cache-missing decodes share one batched
	// forward pass. A miss that finds no decode in flight decodes at
	// once; one that arrives behind an in-flight decode gathers for at
	// most BatchWait (0 = the batcher default, 2ms). 0 or 1 disables
	// batching.
	BatchMax  int
	BatchWait time.Duration
	// Critic enables the execution-guided validation-and-repair layer
	// for every tenant: candidates are schema-checked, sandboxed
	// dry-run against the tenant's engine, and deterministically
	// repaired before answering. A tenant whose Unit was assembled
	// without a critic gets one attached at equip time, and onboarded
	// tenants inherit these settings.
	Critic bool
	// CriticRowBudget caps environment rows per critic dry-run and
	// CriticTimeout bounds one dry-run (0 = critic defaults).
	CriticRowBudget int
	CriticTimeout   time.Duration
	// MinAccuracy is the onboarding eval gate: a candidate model
	// scoring below it on the per-schema workload is rejected and the
	// prior version keeps serving (0 disables the gate).
	MinAccuracy float64
	// EvalQuestions sizes the gate workload (0 = the registry default,
	// negative skips evaluation).
	EvalQuestions int
	// CheckpointDir makes onboarding restartable: training checkpoints
	// land in <dir>/<tenant>.ckpt every CheckpointEvery steps and a
	// re-onboard resumes from them.
	CheckpointDir   string
	CheckpointEvery int
	// Logf, when non-nil, receives onboarding progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	c.Workers = par.Count(c.Workers)
	if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// Server fronts a tenant registry with the robustness stack. Create it
// with New (single tenant) or NewMulti, mount Handler (or
// Start/Shutdown for a managed listener), and it is safe for any
// number of concurrent requests.
type Server struct {
	reg  *registry.Registry
	cfg  Config
	mux  *http.ServeMux
	http *http.Server

	// onboardCtx parents every background onboarding; Shutdown cancels
	// it so training checkpoints and the goroutines drain.
	onboardCtx    context.Context
	onboardCancel context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenantState

	draining atomic.Bool
	reqSeq   atomic.Int64
}

// tenantState is the serving-side per-tenant state: admission
// telemetry and the tenant's derived retry-jitter stream. The model
// slot, cache, and breakers live on the registry's Version so they
// swap atomically with the model.
type tenantState struct {
	name    string
	tenant  *registry.Tenant
	retry   RetryPolicy
	stats   *counters
	waiting atomic.Int64
}

// equipment is what the server attaches to every registry version:
// breakers and batcher are per-version so a swapped-in model starts
// with closed breakers and a batcher wrapping its own weights.
type equipment struct {
	breakers *TierBreakers
	batcher  *Batcher
	// criticBreaker guards the critic's sandbox: it trips only on
	// sandbox infrastructure failures (engine panic or dry-run
	// deadline), and while open the tenant degrades to unvalidated
	// answering instead of failing requests.
	criticBreaker *Breaker
}

// criticHook adapts one Breaker to runtime.CriticHook.
type criticHook struct{ b *Breaker }

func (h criticHook) Allow() error     { return h.b.Allow() }
func (h criticHook) Record(err error) { h.b.Record(err) }

var _ runtime.CriticHook = criticHook{}

// New wires the stack around a single pre-built translator — the
// original single-tenant constructor, kept as the boot-time path for
// callers that assembled their own runtime.Translator. The tenant is
// named after the translator's schema.
func New(tr *runtime.Translator, cfg Config) *Server {
	u := &boot.Unit{Schema: tr.DB.Schema, DB: tr.DB, Model: tr.Model, Translator: tr}
	return NewMulti([]*boot.Unit{u}, cfg)
}

// NewMulti wires the stack around any number of pre-built tenants; the
// first is the default tenant for the legacy un-prefixed routes. More
// tenants onboard live through POST /schemas.
func NewMulti(units []*boot.Unit, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenantState{},
		mux:     http.NewServeMux(),
	}
	s.onboardCtx, s.onboardCancel = context.WithCancel(context.Background())
	s.reg = registry.New(registry.Config{
		Workers:         cfg.Workers,
		CacheSize:       cfg.CacheSize,
		CacheShards:     cfg.CacheShards,
		MinAccuracy:     cfg.MinAccuracy,
		EvalQuestions:   cfg.EvalQuestions,
		CheckpointDir:   cfg.CheckpointDir,
		CheckpointEvery: cfg.CheckpointEvery,
		Equip:           s.equip,
		Logf:            cfg.Logf,
	})
	for _, u := range units {
		s.reg.Install(u.Schema.Name, u)
	}
	s.mux.HandleFunc("/ask", func(w http.ResponseWriter, r *http.Request) {
		s.answer(w, r, r.URL.Query().Get("schema"), true)
	})
	s.mux.HandleFunc("/translate", func(w http.ResponseWriter, r *http.Request) {
		s.answer(w, r, r.URL.Query().Get("schema"), false)
	})
	s.mux.HandleFunc("/v1/", s.handleV1)
	s.mux.HandleFunc("/schemas", s.handleSchemas)
	s.mux.HandleFunc("/schemas/", s.handleSchema)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Registry exposes the tenant registry (admin tooling, tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// equip attaches per-version breakers and batcher before the registry
// makes the version visible.
func (s *Server) equip(_ string, v *registry.Version) {
	eq := &equipment{}
	tr := v.Unit.Translator
	if !s.cfg.DisableBreakers {
		eq.breakers = NewTierBreakers(s.cfg.Breaker)
		tr.Hook = eq.breakers
	}
	if s.cfg.BatchMax >= 2 && tr.Model != nil {
		// The primary model decodes through the microbatcher; wrapping
		// it keeps the tier chain (breakers, deadlines, fallbacks)
		// oblivious to batching.
		eq.batcher = NewBatcher(tr.Model, tr.SchemaTokens(), BatcherConfig{
			MaxBatch: s.cfg.BatchMax,
			MaxWait:  s.cfg.BatchWait,
		})
		tr.Model = batchingModel{inner: tr.Model, b: eq.batcher}
	}
	if s.cfg.Critic && tr.Critic == nil {
		tr.Critic = critic.New(v.Unit.DB, critic.Config{
			RowBudget: s.cfg.CriticRowBudget,
			Timeout:   s.cfg.CriticTimeout,
			Seed:      v.Unit.Spec.Seed,
		})
	}
	if tr.Critic != nil && !s.cfg.DisableBreakers {
		eq.criticBreaker = NewBreaker(s.cfg.Breaker)
		tr.CriticHook = criticHook{b: eq.criticBreaker}
	}
	v.Equipment = eq
}

// defaultVersion returns the default tenant's serving version, or nil
// for an empty registry (single-tenant helpers and tests).
func (s *Server) defaultVersion() *registry.Version {
	if t := s.reg.Default(); t != nil {
		return t.Current()
	}
	return nil
}

// versionEquipment unwraps what equip attached (nil-safe).
func versionEquipment(v *registry.Version) *equipment {
	if v == nil {
		return nil
	}
	eq, _ := v.Equipment.(*equipment)
	return eq
}

// state returns the serving-side state for a tenant, creating it on
// first use. The default tenant keeps the configured retry seed (the
// single-tenant behavior); every other tenant mixes its name in so the
// jitter streams are disjoint.
func (s *Server) state(t *registry.Tenant) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenants[t.Name]
	if ts == nil {
		ts = &tenantState{name: t.Name, tenant: t, stats: newCounters(), retry: s.cfg.Retry}
		if def := s.reg.Default(); def != nil && def.Name != t.Name {
			ts.retry.Seed = s.cfg.Retry.Seed ^ int64(fnv64(t.Name))
		}
		s.tenants[t.Name] = ts
	}
	return ts
}

// fnv64 is the FNV-1a hash used to derive per-tenant seeds.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Handler returns the routed handler, for tests and custom listeners.
func (s *Server) Handler() http.Handler { return s.mux }

// Start serves on ln in the background and returns the channel that
// yields http.Server.Serve's error when the listener closes
// (http.ErrServerClosed after a clean Shutdown).
func (s *Server) Start(ln net.Listener) <-chan error {
	errc := make(chan error, 1)
	//lint:allow rawgo the accept loop must run beside the signal handler; net/http owns the per-connection concurrency
	go func() { errc <- s.http.Serve(ln) }()
	return errc
}

// Drain flips the server to draining: /readyz answers 503 and new
// work is rejected with the draining error, while requests already
// admitted keep running. Load balancers watch /readyz, so calling
// Drain before Shutdown gives them time to stop routing here.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains, cancels in-flight onboarding (its training writes a
// final checkpoint, so a later process resumes where it stopped), and
// then stops the listener started by Start, waiting for in-flight
// requests to finish until ctx expires. The onboarding join is
// bounded by the same ctx — a tenant whose model ignores
// cancellation costs at most a goroutine at exit, never a hung
// SIGTERM — and the HTTP listener is stopped regardless, so the
// drain deadline is honored end to end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	s.onboardCancel()
	waitErr := s.reg.WaitCtx(ctx)
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return waitErr
}

// ---------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------

// askRequest is the POST body of the ask/translate endpoints; GET
// requests use ?q= and ?timeout_ms= instead.
type askRequest struct {
	Question  string `json:"question"`
	TimeoutMS int    `json:"timeout_ms"`
}

// askResponse is the success body.
type askResponse struct {
	Question string `json:"question"`
	// Schema names the tenant that answered.
	Schema string `json:"schema"`
	SQL    string `json:"sql"`
	// Tier names the translator tier that answered.
	Tier string `json:"tier"`
	// TierErrors lists the failed tiers ahead of the answering one.
	TierErrors []string `json:"tier_errors,omitempty"`
	// Columns/Rows carry the execution result on ask (absent on
	// translate).
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Retries int        `json:"retries,omitempty"`
}

// handleV1 routes /v1/{schema}/ask and /v1/{schema}/translate.
func (s *Server) handleV1(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/")
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" || (op != "ask" && op != "translate") {
		writeError(w, KindNotFound, 0, "no route %s; want /v1/{schema}/ask or /v1/{schema}/translate", r.URL.Path)
		return
	}
	s.answer(w, r, name, op == "ask")
}

// resolveTenant maps a request's schema name ("" = default tenant) to
// the tenant and its serving version, writing the typed error itself
// when resolution fails.
func (s *Server) resolveTenant(w http.ResponseWriter, name string) (*tenantState, *registry.Version, bool) {
	var t *registry.Tenant
	if name == "" {
		t = s.reg.Default()
	} else {
		t = s.reg.Lookup(name)
	}
	if t == nil {
		writeError(w, KindNotFound, 0, "unknown schema %q; GET /schemas lists tenants", name)
		return nil, nil, false
	}
	v := t.Current()
	if v == nil {
		st := t.Status()
		msg := "schema %q has no serving model yet (state %s)"
		if st.Error != "" {
			msg += ": " + st.Error
		}
		writeError(w, KindOnboarding, 2, msg, t.Name, st.State)
		return nil, nil, false
	}
	return s.state(t), v, true
}

// answer is the shared ask (execute=true) and translate handler for
// both the /v1/{schema}/ and legacy routes.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, schemaName string, execute bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, KindValidation, 0, "method %s not allowed; use GET or POST", r.Method)
		return
	}
	if s.draining.Load() {
		writeError(w, KindDraining, 0, "server is draining")
		return
	}
	ts, v, ok := s.resolveTenant(w, schemaName)
	if !ok {
		return
	}
	req, err := parseAsk(r)
	if err != nil {
		ts.stats.validation.Add(1)
		writeError(w, KindValidation, 0, "%v", err)
		return
	}

	// Admission control: take a tenant slot immediately if one is
	// free; else join the tenant's bounded waiting room or shed.
	limiter := ts.tenant.Limiter
	if !limiter.TryAcquire() {
		if ts.waiting.Add(1) > int64(s.cfg.Queue) {
			ts.waiting.Add(-1)
			ts.stats.shed.Add(1)
			writeError(w, KindShed, 1, "schema %q at capacity (%d in flight, %d queued); retry later",
				ts.name, s.cfg.Workers, s.cfg.Queue)
			return
		}
		werr := limiter.Acquire(r.Context())
		ts.waiting.Add(-1)
		if werr != nil {
			// The client went away while queued.
			ts.stats.timeouts.Add(1)
			writeError(w, KindTimeout, 0, "request cancelled while queued: %v", werr)
			return
		}
	}
	defer limiter.Release()
	ts.stats.accepted.Add(1)

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var (
		q     *sqlast.Query
		trace *runtime.Trace
	)
	retries, terr := ts.retry.Do(ctx, s.reqSeq.Add(1), retryable, func() error {
		var ferr error
		q, trace, ferr = s.translate(ctx, v, req.Question)
		return ferr
	})
	ts.stats.retries.Add(int64(retries))
	if terr != nil {
		kind := classify(terr)
		if ctx.Err() != nil {
			// Whatever the chain reported, the request deadline is the
			// root cause once it has expired.
			kind = KindTimeout
		}
		ts.recordFailure(kind)
		writeError(w, kind, 0, "%v", terr)
		return
	}

	resp := askResponse{
		Question: req.Question,
		Schema:   ts.name,
		SQL:      q.String(),
		Tier:     trace.Tier,
		Retries:  retries,
	}
	resp.TierErrors = append(resp.TierErrors, trace.TierErrors...)
	if execute {
		res, xerr := v.Unit.DB.Execute(q)
		if xerr != nil {
			ts.recordFailure(KindInternal)
			writeError(w, KindInternal, 0, "executing %q: %v", q.String(), xerr)
			return
		}
		resp.Columns = res.Columns
		for _, row := range res.Rows {
			out := make([]string, len(row))
			for i, val := range row {
				out[i] = val.String()
			}
			resp.Rows = append(resp.Rows, out)
		}
	}
	ts.stats.completed.Add(1)
	ts.stats.answeredBy(trace.Tier)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, resp)
}

// translate runs one question through the version's inference hot
// path. With no cache configured it is exactly the translator's
// one-shot entry point (batching, when on, already lives inside the
// primary model). With a cache, the pipeline splits: the deterministic
// pre-processing runs first, its schema-qualified lemmatized output
// keys the version's result cache, and only a leader that misses pays
// a decode — concurrent misses for the same key coalesce onto that one
// decode, and each request then finalizes the shared
// binding-independent candidates under its own constants. A cached
// decode that no longer finalizes for this request's bindings falls
// back to one fresh full-strength decode rather than failing the
// request.
func (s *Server) translate(ctx context.Context, v *registry.Version, question string) (*sqlast.Query, *runtime.Trace, error) {
	tr := v.Unit.Translator
	if v.Cache == nil {
		return tr.TranslateTraceContext(ctx, question)
	}
	trace := &runtime.Trace{Question: question}
	anon, nl, err := tr.Preprocess(question)
	if err != nil {
		return nil, trace, err
	}
	trace.Anonymized = anon.Tokens
	trace.Bindings = anon.Bindings
	trace.Lemmatized = nl

	// The leader finalizes inside the loader (its decode and bindings
	// belong to the same request); leaderQ carries that answer past
	// the cache, which only stores the binding-independent decode.
	var leaderQ *sqlast.Query
	dec, outcome, err := v.Cache.Do(ctx, tr.CacheKey(nl), func(lctx context.Context) (*runtime.DecodeResult, error) {
		q, d, lerr := tr.TranslatePrepared(lctx, nl, anon.Bindings, nil, trace)
		leaderQ = q
		return d, lerr
	})
	trace.Cache = outcome.String()
	if err != nil {
		return nil, trace, err
	}
	if outcome == cache.Miss && leaderQ != nil {
		return leaderQ, trace, nil
	}
	q, _, ferr := tr.TranslatePrepared(ctx, nl, anon.Bindings, dec, trace)
	if ferr == nil {
		return q, trace, nil
	}
	// Stale for these bindings: re-decode at full strength.
	q, _, err = tr.TranslatePrepared(ctx, nl, anon.Bindings, nil, trace)
	return q, trace, err
}

// recordFailure bumps the failure counter for the kind.
func (ts *tenantState) recordFailure(kind ErrorKind) {
	switch kind {
	case KindTimeout:
		ts.stats.timeouts.Add(1)
	case KindValidation:
		ts.stats.validation.Add(1)
	}
	ts.stats.failed.Add(1)
}

// parseAsk extracts the question and optional timeout from either
// request form.
func parseAsk(r *http.Request) (askRequest, error) {
	var req askRequest
	if r.Method == http.MethodGet {
		req.Question = r.URL.Query().Get("q")
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			n, err := strconv.Atoi(ms)
			if err != nil || n < 0 {
				return req, errors.New("timeout_ms must be a non-negative integer")
			}
			req.TimeoutMS = n
		}
		return req, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return req, errors.New("unreadable request body")
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, errors.New("malformed JSON body; want {\"question\": \"...\"}")
	}
	if req.TimeoutMS < 0 {
		return req, errors.New("timeout_ms must be non-negative")
	}
	return req, nil
}

// ---------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(w, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// handleStatsz renders the Stats snapshot.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Snapshot())
}
