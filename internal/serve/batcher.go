package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
)

// BatcherConfig sizes the cross-request microbatcher.
type BatcherConfig struct {
	// MaxBatch flushes a batch as soon as it holds this many requests
	// (default 8). Values below 2 disable batching.
	MaxBatch int
	// MaxWait bounds how long a request gathered behind an in-flight
	// decode waits for it (default 2ms): the partial batch flushes
	// this long after its first request arrived even if that decode
	// is still running. A request arriving while the batcher is idle
	// never waits.
	MaxWait time.Duration
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	return c
}

// Batcher gathers concurrent decode requests into one batched forward
// pass over the model. It is work-conserving: a request that finds no
// batch gathering and no decode in flight decodes at once on its own
// goroutine, since there is nothing to share a decode with. A request
// that arrives while a decode is running joins the gathering batch,
// which flushes when it is full (MaxBatch, by the request that filled
// it), when the last in-flight decode finishes (scheduled through
// after(0, …)), or when its oldest request has waited MaxWait,
// whichever comes first. One goroutine decodes the whole batch —
// through the model's TranslateBatch when it implements
// models.BatchTranslator, per item otherwise — and every waiter
// receives its own row; b.mu is never held across a decode. A request
// whose context is cancelled while queued leaves immediately, and the
// flush skips it, so a dead client never occupies a batch slot into
// the decode.
//
// The batched decode is bit-identical per row to a sequential decode
// (the BatchTranslator contract), so batching changes throughput,
// never answers.
type Batcher struct {
	model  models.Translator
	schema []string
	cfg    BatcherConfig

	// after schedules the MaxWait and decode-finished flushes; a test
	// may replace it to drive flushes by hand instead of by wall clock.
	after func(d time.Duration, f func()) *time.Timer

	mu       sync.Mutex
	cur      *batch // the gathering batch; nil when none
	inflight int    // decodes running now

	batches   atomic.Int64
	items     atomic.Int64
	flushFull atomic.Int64
	flushWait atomic.Int64
	flushIdle atomic.Int64
	cancelled atomic.Int64
}

// batch is one in-progress gather.
type batch struct {
	items []*batchItem
	timer *time.Timer
}

// batchItem is one request's slot in a batch.
type batchItem struct {
	nl   []string
	ctx  context.Context
	done chan struct{}
	out  []string
	err  error
}

// NewBatcher builds a batcher decoding with model over schemaToks.
func NewBatcher(model models.Translator, schemaToks []string, cfg BatcherConfig) *Batcher {
	return &Batcher{
		model:  model,
		schema: schemaToks,
		cfg:    cfg.withDefaults(),
		after:  time.AfterFunc,
	}
}

// BatcherStats is the /statsz batcher section.
type BatcherStats struct {
	MaxBatch  int     `json:"max_batch"`
	MaxWaitMS float64 `json:"max_wait_ms"`
	// Batches and Items are decode flushes and the requests they
	// carried; MeanBatch is Items/Batches.
	Batches   int64   `json:"batches"`
	Items     int64   `json:"items"`
	MeanBatch float64 `json:"mean_batch"`
	// FlushFull counts batches flushed at MaxBatch, FlushWait batches
	// flushed by the MaxWait timer, and FlushIdle batches flushed
	// because no decode was in flight: a lone request decoding at once,
	// or a gather flushed as the decode it waited behind finished.
	FlushFull int64 `json:"flush_full"`
	FlushWait int64 `json:"flush_wait"`
	FlushIdle int64 `json:"flush_idle"`
	// Cancelled counts requests that left a batch before its decode.
	Cancelled int64 `json:"cancelled"`
}

// Snapshot returns the current BatcherStats.
func (b *Batcher) Snapshot() BatcherStats {
	st := BatcherStats{
		MaxBatch:  b.cfg.MaxBatch,
		MaxWaitMS: float64(b.cfg.MaxWait) / float64(time.Millisecond),
		Batches:   b.batches.Load(),
		Items:     b.items.Load(),
		FlushFull: b.flushFull.Load(),
		FlushWait: b.flushWait.Load(),
		FlushIdle: b.flushIdle.Load(),
		Cancelled: b.cancelled.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Items) / float64(st.Batches)
	}
	return st
}

// Do submits one prepared question and blocks until its batch is
// decoded or ctx is done; a request that found the batcher idle
// decodes alone on the calling goroutine and returns with its decode.
// The returned tokens are exactly what a sequential
// model.Translate(nl, schemaToks) would produce.
func (b *Batcher) Do(ctx context.Context, nl []string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it := &batchItem{nl: nl, ctx: ctx, done: make(chan struct{})}

	b.mu.Lock()
	if b.cur == nil && b.inflight == 0 {
		// Idle: no decode to share, so none to wait for.
		b.inflight++
		b.mu.Unlock()
		b.flushIdle.Add(1)
		b.decode(&batch{items: []*batchItem{it}}) //lint:allow ctxdrop a lone decode has no batch to leave; decode still drops a dead ctx before the model call, and the runtime bounds the whole tier call with par.Await under its deadline
		return it.out, it.err
	}
	if b.cur == nil {
		cur := &batch{}
		b.cur = cur
		// The timer flush races the full flush; flush() resolves the
		// race under b.mu by detaching cur exactly once.
		cur.timer = b.after(b.cfg.MaxWait, func() { b.flush(cur, &b.flushWait) })
	}
	cur := b.cur
	cur.items = append(cur.items, it)
	full := len(cur.items) >= b.cfg.MaxBatch
	if full {
		// Detach while still holding the lock so the next arrival
		// starts a fresh batch; this request becomes the flusher.
		b.cur = nil
		b.inflight++
	}
	b.mu.Unlock()

	if full {
		cur.timer.Stop()
		b.flushFull.Add(1)
		// The request that fills the batch donates its goroutine to
		// decode for everyone; its own ctx still exits early through
		// the select below, and dead-ctx items are dropped by decode.
		b.decode(cur) //lint:allow ctxdrop the flusher decodes the whole batch by design; per-item cancellation is honored via it.done/ctx.Done below
	}
	select {
	case <-it.done:
		return it.out, it.err
	case <-ctx.Done():
		// Leave the batch: the flush will see the dead context and
		// skip this slot.
		return nil, ctx.Err()
	}
}

// flush is the scheduled path (MaxWait timer or decode finished):
// detach cur if it is still the gathering batch (another flush may
// have beaten this one) and decode it.
func (b *Batcher) flush(cur *batch, reason *atomic.Int64) {
	b.mu.Lock()
	if b.cur != cur {
		b.mu.Unlock()
		return
	}
	b.cur = nil
	b.inflight++
	b.mu.Unlock()
	cur.timer.Stop()
	reason.Add(1)
	b.decode(cur)
}

// finish retires one in-flight decode. When it was the last, a batch
// gathered behind it flushes now rather than waiting out MaxWait.
func (b *Batcher) finish() {
	b.mu.Lock()
	b.inflight--
	cur := b.cur
	idle := b.inflight == 0 && cur != nil
	b.mu.Unlock()
	if idle {
		b.after(0, func() { b.flush(cur, &b.flushIdle) })
	}
}

// decode runs the batched forward pass and distributes rows. A panic
// anywhere in the model is recovered into a per-item error — one
// poisoned question must not take down its batchmates' goroutines.
// The caller has counted the decode in b.inflight.
func (b *Batcher) decode(cur *batch) {
	defer b.finish()
	b.batches.Add(1)
	live := cur.items[:0]
	for _, it := range cur.items {
		if err := it.ctx.Err(); err != nil {
			it.err = err
			b.cancelled.Add(1)
			close(it.done)
			continue
		}
		live = append(live, it)
	}
	b.items.Add(int64(len(live)))
	if len(live) == 0 {
		return
	}
	nls := make([][]string, len(live))
	for i, it := range live {
		nls[i] = it.nl
	}
	outs, err := func() (o [][]string, err error) {
		defer func() {
			if r := recover(); r != nil {
				o, err = nil, fmt.Errorf("serve: batched decode panicked: %v", r)
			}
		}()
		if bt, ok := b.model.(models.BatchTranslator); ok && len(live) > 1 {
			return bt.TranslateBatch(nls, b.schema), nil
		}
		return models.TranslateEach(b.model, nls, b.schema), nil
	}()
	for i, it := range live {
		if err != nil {
			it.err = err
		} else {
			it.out = outs[i]
		}
		close(it.done)
	}
}

// batchingModel routes a translator's single-question decodes through
// a Batcher while forwarding everything else, so the runtime's tier
// chain (breakers, deadlines, fallbacks) is oblivious to batching.
// It deliberately does not forward KTranslator: ranked-candidate
// (execution-guided) decoding bypasses the batcher.
type batchingModel struct {
	inner models.Translator
	b     *Batcher
}

// Name forwards to the wrapped model so tier accounting and breakers
// see the real tier name.
func (m batchingModel) Name() string { return m.inner.Name() }

// Train forwards to the wrapped model.
func (m batchingModel) Train(exs []models.Example) { m.inner.Train(exs) }

// Translate decodes through the batcher without a caller context.
func (m batchingModel) Translate(nl, schemaToks []string) []string {
	return m.TranslateContext(context.Background(), nl, schemaToks)
}

// TranslateContext implements models.ContextTranslator: the decode
// runs at once when the batcher is idle, or joins the gathering
// microbatch and leaves it cleanly if ctx dies.
func (m batchingModel) TranslateContext(ctx context.Context, nl, _ []string) []string {
	out, err := m.b.Do(ctx, nl)
	if err != nil {
		return nil
	}
	return out
}
