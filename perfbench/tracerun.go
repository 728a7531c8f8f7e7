package main

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/patients"
)

// traced is the --trace 1 run. It sets up an untraced server and a
// traced one (timing wrappers around every model tier), drives both
// with the same warm pass and open-loop stream, requires byte-identical
// answers from the two (when no request met an open breaker; the same
// answer from the same tier always), and reports the per-layer split
// measured on the traced one.
func traced(ctx context.Context, o options) (rep *report, err error) {
	plain, _, err := startServer(ctx, o.weights, nil, o.conns)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, plain.stop(ctx)) }()
	rec := newRecorder()
	tsrv, _, err := startServer(ctx, o.weights, rec, o.conns)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, tsrv.stop(ctx)) }()

	db, err := patients.Database()
	if err != nil {
		return nil, err
	}
	st, err := makeStreams(db, o.w, o.seed, o.seconds/2, 0)
	if err != nil {
		return nil, err
	}
	plainWarm := plain.warm(ctx, st.warm)
	plainOpen, plainLate, err := plain.openPhase(ctx, st)
	if err != nil {
		return nil, err
	}
	warm := tsrv.warm(ctx, st.warm)
	rec.resetSpans()
	before, err := tsrv.stats(ctx)
	if err != nil {
		return nil, err
	}
	open, late, err := tsrv.openPhase(ctx, st)
	if err != nil {
		return nil, err
	}
	after, err := tsrv.stats(ctx)
	if err != nil {
		return nil, err
	}
	allLate := append(append([]float64(nil), plainLate...), late...)
	if err := checkLate(allLate); err != nil {
		return nil, err
	}
	ob, err := tsrv.cl.onboard(ctx, onboardSeed)
	if err != nil {
		return nil, err
	}

	ck := newChecker(db)
	for _, as := range [][]answer{plainWarm, plainOpen, warm} {
		if _, err := ck.check(as); err != nil {
			return nil, err
		}
	}
	correct, err := ck.check(open)
	if err != nil {
		return nil, err
	}
	if err := mergeAnswers(o.state, ck.table); err != nil {
		return nil, err
	}
	if err := sameAnswers(append(plainWarm, plainOpen...), append(warm, open...)); err != nil {
		return nil, err
	}
	for _, s := range []*server{plain, tsrv} {
		stats, err := s.stats(ctx)
		if err != nil {
			return nil, err
		}
		if err := reconcile(s.tally, stats.Tenants[tenant]); err != nil {
			return nil, err
		}
	}
	if err := checkRepeat(o.state, o, float64(correct)/float64(len(open)), warm, open); err != nil {
		return nil, err
	}

	sp, err := replaySpans(ctx, tsrv.unit, rec, warm, open)
	if err != nil {
		return nil, err
	}
	stages, exs, err := pipelineStages(ctx, tsrv.unit)
	if err != nil {
		return nil, err
	}
	trainProbeS, stepsPerS, err := trainProbe(ctx, exs)
	if err != nil {
		return nil, err
	}
	installMS, err := installProbe(ctx)
	if err != nil {
		return nil, err
	}

	rep = &report{attempted: len(plainOpen) + len(open), failed: countFailed(plainOpen) + countFailed(open)}
	d := deltaOf(before.Tenants[tenant], after.Tenants[tenant])
	rep.addQuantile("loadgen.late_ms.p99", allLate, 0.99, "ms")
	rep.addQuantile("serve.self_ms.p50", sp.self, 0.50, "ms")
	rep.addQuantile("serve.self_ms.p99", sp.self, 0.99, "ms")
	rep.add("serve.retries", float64(d.retries), "count", len(open))
	rep.add("serve.shed", float64(d.shed), "count", len(open))
	rep.add("serve.breaker_open_ratio", ratio(float64(countBreakerOpen(open)), float64(len(open))), "ratio", len(open))
	rep.addQuantile("anonymize.ms.p50", sp.anonymize, 0.50, "ms")
	rep.addQuantile("lemmatize.ms.p50", sp.lemmatize, 0.50, "ms")
	lookups := d.hits + d.misses + d.coalesced
	rep.add("cache.hit_ratio", ratio(float64(d.hits), float64(lookups)), "ratio", int(lookups))
	rep.add("cache.coalesced", float64(d.coalesced), "count", int(lookups))
	rep.addQuantile("cache.ms.p50", sp.cache, 0.50, "ms")
	rep.add("batch.mean_size", ratio(float64(d.items), float64(d.batches)), "count", int(d.batches))
	rep.add("batch.flush_wait_ratio", ratio(float64(d.flushWait), float64(d.batches)), "ratio", int(d.batches))
	primary, fallback := tsrv.unit.Translator.Model.Name(), tsrv.unit.Translator.Fallbacks[0].Name()
	ps, fs := rec.samples(primary), rec.samples(fallback)
	rep.add("decode.primary.calls", float64(len(ps)), "count", len(ps))
	rep.addQuantile("decode.primary.ms.p50", ps, 0.50, "ms")
	rep.addQuantile("decode.primary.ms.p99", ps, 0.99, "ms")
	rep.add("decode.fallback.calls", float64(len(fs)), "count", len(fs))
	rep.addQuantile("decode.fallback.ms.p50", fs, 0.50, "ms")
	rep.add("tier.fallback_ratio", ratio(float64(d.tiers[fallback]), float64(d.completed)), "ratio", int(d.completed))
	rep.add("decode.share", ratio(sp.decodeMS, sp.latMS), "ratio", len(open))
	rep.addQuantile("parse.ms.p50", sp.parse, 0.50, "ms")
	rep.addQuantile("postprocess.ms.p50", sp.postprocess, 0.50, "ms")
	rep.addQuantile("critic.check.ms.p50", sp.check, 0.50, "ms")
	rep.addQuantile("critic.dryrun.ms.p50", sp.dryrun, 0.50, "ms")
	rep.add("critic.repair.calls", float64(d.repaired), "count", int(d.reviewed))
	rep.add("critic.valid_ratio", ratio(float64(d.valid), float64(d.reviewed)), "ratio", int(d.reviewed))
	rep.addQuantile("execute.ms.p50", sp.execute, 0.50, "ms")
	for _, stage := range []string{"generate", "augment", "lemmatize", "dedup"} {
		rep.add("pipeline."+stage+"_ms", stages[stage], "ms", 1)
	}
	rep.add("pipeline.pairs", stages["pairs"], "count", 1)
	rep.add("setup.train_s", trainProbeS, "s", 1)
	rep.add("train.steps_per_s", stepsPerS, "1/s", trainProbeSamples)
	rep.add("onboard.generate_s", ob.GenerateS, "s", 1)
	rep.add("onboard.eval_s", ob.EvalS, "s", 1)
	rep.add("onboard.install_ms", installMS, "ms", 1)
	pq, _ := Percentile(latencies(plainOpen), 0.50)
	tq, _ := Percentile(latencies(open), 0.50)
	rep.add("trace.overhead_ms.p50", tq.Value-pq.Value, "ms", len(open))
	return rep, nil
}

// sameAnswers requires the traced server's answers to be byte-identical
// to the untraced server's for the same questions, unless a request of
// either met an open breaker (the answer table still holds them to
// their answering tier).
func sameAnswers(plain, traced []answer) error {
	if len(plain) != len(traced) {
		return fmt.Errorf("trace: %d traced answers for %d untraced", len(traced), len(plain))
	}
	if n := countBreakerOpen(plain) + countBreakerOpen(traced); n > 0 {
		logf("trace: byte-identity check skipped: %d requests met an open breaker", n)
		return nil
	}
	for i := range plain {
		if plain[i].Status != traced[i].Status || plain[i].BodyHash != traced[i].BodyHash {
			return fmt.Errorf("trace: answer %d to %q differs under tracing: untraced %d %s %q, traced %d %s %q",
				i, plain[i].Q.NL, plain[i].Status, plain[i].Tier, plain[i].SQL, traced[i].Status, traced[i].Tier, traced[i].SQL)
		}
	}
	return nil
}
