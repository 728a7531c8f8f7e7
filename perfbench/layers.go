package main

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/boot"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/sqlast"
)

// spans holds the request-path layer timings of the traced stream,
// one sample per request (per candidate for parse through dry-run).
type spans struct {
	anonymize, lemmatize, cache, parse, postprocess, check, dryrun, execute []float64
	// self is each request's latency minus its child spans: HTTP,
	// admission, retry and client-side queueing.
	self []float64
	// decodeMS and latMS sum the decode time attributed to the
	// requests and their latencies, for the decode share.
	decodeMS, latMS float64
}

// timed runs f and appends its duration in milliseconds to *dst.
func timed(dst *[]float64, f func()) {
	start := now()
	f()
	*dst = append(*dst, msSince(start))
}

// replaySpans re-runs the traced stream's request path layer by layer
// through the same public functions serve.translate calls, in its
// order: Anonymize, LemmatizeAll, CacheKey/Cache.Do, then for every
// tier up to the one that answered ParseTokens, PostProcess and the
// critic's Check (Repair when it fails) and DryRun, and finally
// Database.Execute. Decode spans come from the recorder, which saw
// the traced server's actual decodes; a decode shared by several
// requests (cache hits, coalescing) is split evenly among them.
func replaySpans(ctx context.Context, u *boot.Unit, rec *recorder, warm, traced []answer) (spans, error) {
	var sp spans
	tr := u.Translator
	crit := tr.Critic
	if crit == nil {
		return sp, fmt.Errorf("trace: traced tenant has no critic attached")
	}
	tiers := []string{tr.Model.Name()}
	for _, f := range tr.Fallbacks {
		tiers = append(tiers, f.Name())
	}
	c := cache.New[*runtime.DecodeResult](cache.Config{Capacity: serveConfig().CacheSize})
	prepared := func(q Question) (*runtime.Anonymized, []string, error) {
		anon, err := tr.PH.Anonymize(q.NL)
		if err != nil {
			return nil, nil, err
		}
		return anon, lemma.LemmatizeAll(anon.Tokens), nil
	}
	load := func(nl []string, tier string) func(context.Context) (*runtime.DecodeResult, error) {
		return func(context.Context) (*runtime.DecodeResult, error) {
			out, _ := rec.output(tier, nl)
			return &runtime.DecodeResult{Tier: tier, Candidates: [][]string{out}}, nil
		}
	}
	// The warm pass filled the server's cache; fill the replay cache
	// the same way, untimed.
	for _, a := range warm {
		if _, nl, err := prepared(a.Q); err == nil {
			if _, _, err := c.Do(ctx, tr.CacheKey(nl), load(nl, a.Tier)); err != nil {
				return sp, err
			}
		}
	}
	shares := map[string]int{}
	nls := make([][]string, len(traced))
	for i, a := range traced {
		if _, nl, err := prepared(a.Q); err == nil {
			nls[i] = nl
			shares[tr.CacheKey(nl)]++
		}
	}
	for i, a := range traced {
		var (
			anon *runtime.Anonymized
			err  error
		)
		child := 0.0
		add := func(dst *[]float64, f func()) {
			timed(dst, f)
			child += (*dst)[len(*dst)-1]
		}
		add(&sp.anonymize, func() { anon, err = tr.PH.Anonymize(a.Q.NL) })
		if err != nil {
			return sp, fmt.Errorf("trace: replaying %q: %w", a.Q.NL, err)
		}
		nl := nls[i]
		add(&sp.lemmatize, func() { nl = lemma.LemmatizeAll(anon.Tokens) })
		key := tr.CacheKey(nl)
		add(&sp.cache, func() { _, _, err = c.Do(ctx, key, load(nl, a.Tier)) })
		if err != nil {
			return sp, err
		}
		decode := 0.0
		for _, tier := range tiers {
			decode += rec.decodeMS(tier, nl) / float64(shares[key])
			out, ok := rec.output(tier, nl)
			if !ok {
				continue
			}
			var q *sqlast.Query
			var perr error
			add(&sp.parse, func() { q, perr = sqlast.ParseTokens(out) })
			if perr == nil {
				add(&sp.postprocess, func() { q, perr = runtime.PostProcess(q, u.Schema, anon.Bindings) })
			}
			if perr == nil {
				add(&sp.check, func() {
					if crit.Check(q) != nil {
						q, _, _ = crit.Repair(q)
					}
				})
				add(&sp.dryrun, func() { _ = crit.DryRun(ctx, q) })
			}
			if tier == a.Tier {
				break
			}
		}
		if a.Status == http.StatusOK {
			final, perr := sqlast.Parse(a.SQL)
			if perr != nil {
				return sp, perr
			}
			add(&sp.execute, func() { _, err = u.DB.Execute(final) })
			if err != nil {
				return sp, err
			}
		}
		sp.self = append(sp.self, a.LatMS-child-decode)
		sp.decodeMS += decode
		sp.latMS += a.LatMS
	}
	return sp, nil
}

// pipelineStages runs the tenant's corpus graph once and returns each
// stage's wall time in milliseconds, the pair count, and the examples.
func pipelineStages(ctx context.Context, u *boot.Unit) (map[string]float64, []models.Example, error) {
	sp := u.Spec
	pl := core.New(u.Schema, sp.ParamsOrDefault(), sp.Seed)
	pl.Workers = sp.PipelineWorkers
	g := pl.Graph()
	var pairs []core.Pair
	if err := g.Run(ctx, func(p core.Pair) error { pairs = append(pairs, p); return nil }); err != nil {
		return nil, nil, err
	}
	out := map[string]float64{"pairs": float64(len(pairs))}
	for _, st := range g.Stats() {
		out[st.Stage] = float64(st.WallNS) / 1e6
	}
	return out, models.PairExamples(pairs, u.Schema), nil
}

// trainProbeSamples is the fixed budget (1 epoch over this many
// examples) of the training probe that measures training throughput
// in the traced run.
const trainProbeSamples = 300

// trainProbe trains a fresh copy of the tenant model on the probe
// budget and returns its time in seconds and optimizer steps per
// second.
func trainProbe(ctx context.Context, exs []models.Example) (float64, float64, error) {
	cfg := seq2seqConfig()
	cfg.Epochs = 1
	cfg.SampleCap = trainProbeSamples
	m := models.NewSeq2Seq(cfg)
	start := now()
	if err := boot.Train(ctx, m, exs, boot.TrainOptions{}); err != nil {
		return 0, 0, err
	}
	s := now().Sub(start).Seconds()
	steps := cfg.Epochs * min(cfg.SampleCap, len(exs))
	return s, float64(steps) / s, nil
}

// installProbe builds the onboarded tenant the way onboarding does
// and times its last step alone: assembling the unit and installing it
// as a registry version (the part the admin API's status cannot show).
func installProbe(ctx context.Context) (float64, error) {
	sp := boot.Spec{
		Schema: fmt.Sprintf("%s%d", boot.SynthPrefix, onboardSeed),
		Model:  "nn",
		Critic: serveConfig().Critic,
	}.WithDefaults()
	s, db, err := boot.ResolveSchema(sp.Schema, sp.Rows, sp.Seed)
	if err != nil {
		return 0, err
	}
	pairs, err := boot.Pairs(ctx, s, sp.ParamsOrDefault(), sp.Seed, sp.PipelineWorkers)
	if err != nil {
		return 0, err
	}
	exs := models.PairExamples(pairs, s)
	m := models.NewNearestNeighbor()
	m.Train(exs)
	reg := registry.New(registry.Config{CacheSize: serveConfig().CacheSize})
	start := now()
	u := boot.Assemble(sp, s, db, m, exs, len(pairs))
	reg.Install(boot.TenantName(sp.Schema), u)
	return msSince(start), nil
}

// statsDelta is the tenant's /statsz counters accumulated between two
// snapshots.
type statsDelta struct {
	completed, retries, shed  int64
	hits, misses, coalesced   int64
	batches, items, flushWait int64
	reviewed, valid, repaired uint64
	tiers                     map[string]int64
}

func deltaOf(a, b serve.TenantStats) statsDelta {
	d := statsDelta{
		completed: b.Completed - a.Completed,
		retries:   b.Retries - a.Retries,
		shed:      b.Shed - a.Shed,
		tiers:     map[string]int64{},
	}
	if a.Cache != nil && b.Cache != nil {
		d.hits = b.Cache.Hits - a.Cache.Hits
		d.misses = b.Cache.Misses - a.Cache.Misses
		d.coalesced = b.Cache.Coalesced - a.Cache.Coalesced
	}
	if a.Batcher != nil && b.Batcher != nil {
		d.batches = b.Batcher.Batches - a.Batcher.Batches
		d.items = b.Batcher.Items - a.Batcher.Items
		d.flushWait = b.Batcher.FlushWait - a.Batcher.FlushWait
	}
	if a.Critic != nil && b.Critic != nil {
		d.reviewed = b.Critic.Reviewed - a.Critic.Reviewed
		d.valid = b.Critic.Valid - a.Critic.Valid
		d.repaired = b.Critic.Repaired - a.Critic.Repaired
	}
	for tier, n := range b.Tiers {
		d.tiers[tier] = n - a.Tiers[tier]
	}
	return d
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
