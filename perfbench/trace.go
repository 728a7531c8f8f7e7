package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/boot"
	"repro/internal/models"
	"repro/internal/runtime"
)

// recorder collects the traced run's decode spans. The timing wrappers
// it installs feed it from the serving goroutines, so every method is
// safe for concurrent use.
type recorder struct {
	mu sync.Mutex
	// items holds per-question decode latencies by tier: a batched
	// decode of k questions contributes k samples of the batch's
	// time, which is what each of its questions waited.
	items map[string][]float64
	// byKey sums decode time by tier and lemmatized question, and
	// outputs keeps the tokens each tier decoded for it; the replay
	// finalizes exactly those tokens.
	byKey   map[string]float64
	outputs map[string][]string
}

func newRecorder() *recorder {
	return &recorder{items: map[string][]float64{}, byKey: map[string]float64{}, outputs: map[string][]string{}}
}

func decodeKey(tier string, nl []string) string { return tier + "\x1f" + strings.Join(nl, " ") }

func (r *recorder) record(tier string, nls [][]string, outs [][]string, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, nl := range nls {
		r.items[tier] = append(r.items[tier], ms)
		k := decodeKey(tier, nl)
		r.byKey[k] += ms
		if i < len(outs) {
			r.outputs[k] = outs[i]
		}
	}
}

// resetSpans drops the decode timings recorded so far and keeps the
// decoded outputs: the warm pass's decodes are not the timed phase's.
func (r *recorder) resetSpans() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items = map[string][]float64{}
	r.byKey = map[string]float64{}
}

// output returns the tokens tier decoded for nl, if it decoded it.
func (r *recorder) output(tier string, nl []string) ([]string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out, ok := r.outputs[decodeKey(tier, nl)]
	return out, ok
}

// decodeMS returns the total decode time tier spent on nl.
func (r *recorder) decodeMS(tier string, nl []string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byKey[decodeKey(tier, nl)]
}

func (r *recorder) samples(tier string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.items[tier]...)
}

// install wraps the unit's primary model and every fallback tier in
// timing wrappers, before serve.NewMulti sees the unit.
func (r *recorder) install(u *boot.Unit) error {
	tr := u.Translator
	w, err := wrapModel(tr.Model, r)
	if err != nil {
		return err
	}
	tr.Model, u.Model = w, w
	for i, f := range tr.Fallbacks {
		if tr.Fallbacks[i], err = wrapModel(f, r); err != nil {
			return err
		}
	}
	return nil
}

// Optional interfaces a translator may implement; the serving path
// branches on each, so a wrapper must implement exactly the ones its
// inner model does.
const (
	capBatch = 1 << iota
	capContext
	capK
	capTrain
)

func capsOf(m models.Translator) int {
	c := 0
	if _, ok := m.(models.BatchTranslator); ok {
		c |= capBatch
	}
	if _, ok := m.(models.ContextTranslator); ok {
		c |= capContext
	}
	if _, ok := m.(runtime.KTranslator); ok {
		c |= capK
	}
	if _, ok := m.(boot.ContextTrainer); ok {
		c |= capTrain
	}
	return c
}

// wrapModel returns a timing wrapper around m that implements the same
// optional interfaces, or an error when no wrapper here matches m's
// set (the traced run would otherwise take another code path than the
// untraced one).
func wrapModel(m models.Translator, r *recorder) (models.Translator, error) {
	base := &timedModel{inner: m, rec: r}
	var w models.Translator
	switch capsOf(m) {
	case 0:
		w = base
	case capBatch | capK | capTrain:
		w = &timedSeq2Seq{base}
	default:
		return nil, fmt.Errorf("trace: no timing wrapper preserves the optional interfaces of %s (set %04b)", m.Name(), capsOf(m))
	}
	if capsOf(w) != capsOf(m) {
		return nil, fmt.Errorf("trace: wrapper for %s implements set %04b, model %04b", m.Name(), capsOf(w), capsOf(m))
	}
	return w, nil
}

// timedModel times the plain Translator contract.
type timedModel struct {
	inner models.Translator
	rec   *recorder
}

func (t *timedModel) Name() string               { return t.inner.Name() }
func (t *timedModel) Train(exs []models.Example) { t.inner.Train(exs) }

func (t *timedModel) Translate(nl, schemaToks []string) []string {
	start := now()
	out := t.inner.Translate(nl, schemaToks)
	t.rec.record(t.inner.Name(), [][]string{nl}, [][]string{out}, msSince(start))
	return out
}

// timedSeq2Seq adds the seq2seq model's optional interfaces: batched
// decode, ranked candidates, and cancellable training.
type timedSeq2Seq struct{ *timedModel }

func (t *timedSeq2Seq) TranslateBatch(nls [][]string, schemaToks []string) [][]string {
	start := now()
	outs := t.inner.(models.BatchTranslator).TranslateBatch(nls, schemaToks)
	t.rec.record(t.inner.Name(), nls, outs, msSince(start))
	return outs
}

func (t *timedSeq2Seq) TranslateK(nl, schemaToks []string, k int) [][]string {
	start := now()
	outs := t.inner.(runtime.KTranslator).TranslateK(nl, schemaToks, k)
	var top []string
	if len(outs) > 0 {
		top = outs[0]
	}
	t.rec.record(t.inner.Name(), [][]string{nl}, [][]string{top}, msSince(start))
	return outs
}

func (t *timedSeq2Seq) TrainContext(ctx context.Context, exs []models.Example, opts models.TrainOptions) error {
	return t.inner.(boot.ContextTrainer).TrainContext(ctx, exs, opts)
}
