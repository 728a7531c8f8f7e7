package main

import (
	"time"

	"repro/internal/boot"
	"repro/internal/models"
	"repro/internal/serve"
)

// tenant is the schema every ask workload queries.
const tenant = "patients"

// modelSeed fixes the tenant's model: it is the same program under
// every --seed, which only varies the traffic.
const modelSeed = 1

// seq2seqConfig is the served model's configuration: the one
// dbpal-serve -model seq2seq trains, whose budget is per-example SGD
// (batch 1), 6 epochs over a 4000-example sample of the patients
// corpus.
//
// With less training the breakers in serveConfig turn the model's
// critic-rejected answers into outages: at 2 epochs over 2000 examples
// a quarter to a half of ask-repeat requests failed tier_exhausted,
// depending on wall-clock timing (see answerTable).
func seq2seqConfig() models.Seq2SeqConfig {
	cfg := models.DefaultSeq2SeqConfig()
	cfg.Seed = modelSeed
	return cfg
}

// tenantSpec is the patients tenant as dbpal-serve builds it from its
// default flags with -model seq2seq -load <weights>.
func tenantSpec(weights string) boot.Spec {
	cfg := seq2seqConfig()
	return boot.Spec{
		Schema:     tenant,
		Model:      "seq2seq",
		LoadPath:   weights,
		Seq2Seq:    &cfg,
		Seed:       modelSeed,
		Rows:       40,
		ExecGuided: 1,
		Fallback:   true,
	}
}

// serveConfig is the serve.Config dbpal-serve builds from its default
// flags: workers = NumCPU, queue 2x workers, 10s timeout, 1 retry,
// tier breakers (trip at half failures over at least 4 of the last 16
// decodes, 5s cooldown), critic on, cache 1024, batch 8 / 2ms.
//
// The breakers count critic rejections as tier failures, and their
// cooldown runs on wall-clock time. When one opens, which requests it
// turns away depends on timing, so the exact-repeat checks apply only
// to runs in which no request met an open breaker, and every answer is
// always held to its answering tier (see answerTable). With the model
// of seq2seqConfig none opened on either workload.
func serveConfig() serve.Config {
	return serve.Config{
		Timeout:   10 * time.Second,
		Retry:     serve.RetryPolicy{MaxAttempts: 2, Seed: modelSeed},
		Breaker:   serve.BreakerConfig{Cooldown: 5 * time.Second},
		Critic:    true,
		CacheSize: 1024,
		BatchMax:  8,
		BatchWait: 2 * time.Millisecond,
	}
}
