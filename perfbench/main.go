// Command perfbench is the repository's end-to-end benchmark. It boots
// the patients tenant (seq2seq primary, template-nn fallback, critic,
// cache, batcher, breakers: the dbpal-serve defaults) through
// boot.Build and serve.NewMulti on a loopback listener, drives one
// named workload over real HTTP from the same process, checks every
// answer, and prints each metric with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --provision-only
//	perfbench --workload ask-repeat|ask-novel --seed N --seconds S --trace 0|1
//
// --provision-only trains and saves the tenant model when this version
// of the served program has none yet, and prints nothing. --trace 0
// reports the end-to-end metrics; --trace 1 runs the same traffic
// against an untraced and a traced server and reports the per-layer
// split. Any failed output check, /statsz reconciliation or a load
// generator that fell behind exits non-zero without a result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/patients"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// rate is the fixed open-loop offered rate in requests per second,
	// and p99LimitMS the open-loop p99 the seed revision meets at it.
	rate       float64
	p99LimitMS float64
	// novel draws spider-phrased questions (cache misses) instead of
	// Zipf-repeated patients cases (cache hits).
	novel bool
}

var workloads = []workload{
	{name: "ask-repeat", rate: 300, p99LimitMS: 50},
	{name: "ask-novel", rate: 55, p99LimitMS: 100, novel: true},
}

const (
	// setupRepeats is how many times a run sets the server up; setup_s
	// is their median.
	setupRepeats = 5
	// capacityShare is the part of --seconds the closed-loop capacity
	// phase gets; the open-loop phase gets the rest.
	capacityShare = 1.0 / 2
	// lateBoundMS invalidates a run whose generator handed requests
	// to the connection workers later than this at p99.
	lateBoundMS = 100
	// novelWarm is how many novel questions warm connections and code
	// paths before ask-novel is timed (drawn apart from the timed ones).
	novelWarm = 64
	// capacityCeiling bounds the questions drawn for the capacity
	// phase, in requests per second of phase.
	capacityCeiling = 8000
	// runDeadline bounds a run after provisioning, so it exits well
	// inside 180 s even when something hangs; provisionDeadline bounds
	// the one-time training.
	runDeadline       = 170 * time.Second
	provisionDeadline = 600 * time.Second
)

func main() { os.Exit(run(os.Args[1:])) }

// logf writes one progress or diagnostic line to standard error.
func logf(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// options are the parsed command-line flags.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	state   string
	weights string
	conns   int
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "ask-repeat | ask-novel")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = report the per-layer split instead of the end-to-end metrics")
	state := fs.String("state", filepath.Join(".bench_build", "perfbench"), "directory for trained weights and answer tables (one subdirectory per version of the served program)")
	provisionOnly := fs.Bool("provision-only", false, "train and save the tenant model if this version of the served program has none, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, state: *state, conns: goruntime.NumCPU()}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			opts.w, found = w, true
		}
	}
	if !*provisionOnly && (!found || *seconds <= 0 || (*trace != 0 && *trace != 1)) {
		logf("want --workload ask-repeat|ask-novel, --seconds > 0, --trace 0|1")
		return 2
	}
	id, err := stateKey()
	if err != nil {
		logf("%v", err)
		return 1
	}
	opts.state = filepath.Join(opts.state, id)
	// Training happens once per version of the served program, before
	// its first run (run.sh provisions in a process of its own); the
	// run deadline starts after it.
	pctx, pcancel := context.WithTimeout(context.Background(), provisionDeadline)
	weights, trainS, err := provision(pctx, opts.state)
	pcancel()
	if err != nil {
		logf("provisioning the model: %v", err)
		return 1
	}
	if trainS > 0 {
		logf("trained the tenant model in %.1fs", trainS)
	}
	if *provisionOnly {
		return 0
	}
	opts.weights = weights
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var rep *report
	if opts.trace {
		rep, err = traced(ctx, opts)
	} else {
		rep, err = untraced(ctx, opts)
	}
	if err != nil {
		logf("%s: %v", opts.w.name, err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // e.g. the percentile actually reported
	// info figures are printed in the table but left out of the JSON
	// result: BENCHMARK.json does not gate them.
	info bool
}

// report is a run's result.
type report struct {
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// markInfo turns the last added metric into an info figure.
func (r *report) markInfo() { r.metrics[len(r.metrics)-1].info = true }

// addQuantile reports a percentile, noting when the sample was too
// small for the percentile asked for.
func (r *report) addQuantile(name string, xs []float64, p float64, unit string) {
	q, ok := Percentile(xs, p)
	m := metric{name: name, value: q.Value, unit: unit, n: q.N}
	if !ok {
		m.note = "too few samples"
	} else if q.Lowered {
		m.note = fmt.Sprintf("p%.1f reported (p%g needs %d samples)", 100*q.P, 100*p, int(math.Ceil(tailSamples/(1-p)))+1)
	}
	r.metrics = append(r.metrics, m)
}

// print writes the human-readable table, then the JSON result line.
func (r *report) print(w io.Writer) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-28s %14.4f %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.info {
			m.note = strings.TrimPrefix(m.note+"; not gated", "; ")
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		if !m.info {
			ms[m.name] = jm{Value: m.value, Unit: m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{true, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// streams are a run's generated inputs.
type streams struct {
	warm, open, capacity []Question
	offs                 []time.Duration
}

// makeStreams draws the run's questions and arrival schedule from the
// seed. openSec is the open-loop phase length, capSec the capacity
// phase length.
func makeStreams(db *engine.Database, w workload, seed int64, openSec, capSec float64) (streams, error) {
	var st streams
	openN := int(math.Round(w.rate * openSec))
	capN := int(math.Ceil(capacityCeiling * capSec))
	st.offs = Schedule(openN, w.rate, seed^0x5c4ed)
	if w.novel {
		qs, err := NovelStream(db, novelWarm+openN+capN, seed)
		if err != nil {
			return st, err
		}
		st.warm, st.open, st.capacity = qs[:novelWarm], qs[novelWarm:novelWarm+openN], qs[novelWarm+openN:]
		return st, nil
	}
	qs, err := RepeatStream(db, openN+capN, seed)
	if err != nil {
		return st, err
	}
	st.warm, st.open, st.capacity = WarmSet(), qs[:openN], qs[openN:]
	return st, nil
}

// warm sends qs one at a time, in order, so the result cache fills the
// same way on every run.
func (s *server) warm(ctx context.Context, qs []Question) []answer {
	out := make([]answer, len(qs))
	for i, q := range qs {
		out[i] = s.cl.ask(ctx, q)
	}
	s.tally.add(out)
	return out
}

// openPhase runs the open-loop phase.
func (s *server) openPhase(ctx context.Context, st streams) ([]answer, []float64, error) {
	answers, late, err := s.cl.openLoop(ctx, st.open, st.offs)
	s.tally.add(answers)
	return answers, late, err
}

// untraced is the --trace 0 run: the end-to-end metrics.
func untraced(ctx context.Context, o options) (*report, error) {
	var (
		setups []float64
		srv    *server
	)
	for i := 0; i < setupRepeats; i++ {
		s, sec, err := startServer(ctx, o.weights, nil, o.conns)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, sec)
		if i < setupRepeats-1 {
			if err := s.stop(ctx); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	rep, err := measure(ctx, o, srv)
	if serr := srv.stop(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	rep.metrics = append([]metric{{name: "setup_s", value: median(setups), unit: "s", n: len(setups)}}, rep.metrics...)
	return rep, nil
}

// measure drives the timed phases against srv and checks every answer.
func measure(ctx context.Context, o options, srv *server) (*report, error) {
	db, err := patients.Database()
	if err != nil {
		return nil, err
	}
	capSec := o.seconds * capacityShare
	openSec := o.seconds - capSec
	st, err := makeStreams(db, o.w, o.seed, openSec, capSec)
	if err != nil {
		return nil, err
	}
	// Peak memory is the timed phases' own: set-up garbage goes first.
	goruntime.GC()
	debug.FreeOSMemory()
	var ph phases
	peak, err := peakRSSDuring(ctx, func() error {
		var derr error
		ph, derr = srv.drive(ctx, st, capSec)
		return derr
	})
	if err != nil {
		return nil, err
	}
	if err := checkLate(ph.late); err != nil {
		return nil, err
	}
	if q, ok := Percentile(ph.late, 0.99); ok {
		logf("load generator late p%.1f = %.2f ms (n=%d)", 100*q.P, q.Value, q.N)
	}
	ck := newChecker(db)
	if _, err := ck.check(ph.warm); err != nil {
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	correct, err := ck.check(ph.open)
	if err != nil {
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	if _, err := ck.check(ph.capacity); err != nil {
		return nil, fmt.Errorf("capacity phase: %w", err)
	}
	if err := mergeAnswers(o.state, ck.table); err != nil {
		return nil, err
	}
	if err := checkRepeat(o.state, o, float64(correct)/float64(len(ph.open)), ph.warm, ph.open); err != nil {
		return nil, err
	}
	stats, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	if err := reconcile(srv.tally, stats.Tenants[tenant]); err != nil {
		return nil, err
	}

	rep := &report{}
	for _, as := range [][]answer{ph.open, ph.capacity} {
		rep.attempted += len(as)
		rep.failed += countFailed(as)
	}
	lat := latencies(ph.open)
	rep.addQuantile("latency_p50_ms", lat, 0.50, "ms")
	rep.addQuantile("latency_p90_ms", lat, 0.90, "ms")
	rep.markInfo()
	rep.addQuantile("latency_p99_ms", lat, 0.99, "ms")
	rep.markInfo()
	if q, ok := Percentile(lat, 0.99); ok && q.Value > o.w.p99LimitMS {
		logf("note: open-loop p99 %.1f ms is over this workload's %.0f ms limit at %.0f req/s",
			q.Value, o.w.p99LimitMS, o.w.rate)
	}
	rep.add("capacity_rps", median(windowRates(ph.capacity, ph.capDur)), "1/s", len(ph.capacity))
	rep.markInfo()
	rep.add("cpu_ms_per_req", 1000*ph.capCPU/float64(len(ph.capacity)), "ms", len(ph.capacity))
	rep.markInfo()
	n := len(ph.open)
	ok := countOK(ph.open)
	rep.add("error_ratio", float64(n-ok)/float64(n), "ratio", n)
	rep.markInfo()
	rep.add("ok_ratio", float64(ok)/float64(n), "ratio", n)
	rep.add("answer_accuracy", float64(correct)/float64(n), "ratio", n)
	rep.add("breaker_open_ratio", float64(countBreakerOpen(ph.open))/float64(n), "ratio", n)
	rep.markInfo()
	rep.add("peak_rss_mb", peak, "MiB", 1)
	return rep, nil
}

// phases is what the timed phases of an untraced run produced.
type phases struct {
	warm, open, capacity []answer
	late                 []float64
	capDur               time.Duration
	// capCPU is the CPU time the whole process (server and client)
	// spent during the capacity phase, in seconds.
	capCPU float64
}

// drive runs the timed phases: the warm pass, the open-loop phase and
// the closed-loop capacity phase.
func (s *server) drive(ctx context.Context, st streams, capSec float64) (phases, error) {
	var (
		ph  phases
		err error
	)
	ph.warm = s.warm(ctx, st.warm)
	if ph.open, ph.late, err = s.openPhase(ctx, st); err != nil {
		return ph, err
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		return ph, err
	}
	ph.capacity, ph.capDur, err = s.cl.closedLoop(ctx, st.capacity, time.Duration(capSec*float64(time.Second)))
	s.tally.add(ph.capacity)
	cpu1, cerr := cpuSeconds()
	ph.capCPU = cpu1 - cpu0
	return ph, errors.Join(err, cerr)
}

// capacityWindow is the slice of the capacity phase each completion
// rate is measured over; capacity_rps is the median window.
const capacityWindow = time.Second

// windowRates returns the 200s per second of each whole capacityWindow
// of a closed-loop phase that lasted d.
func windowRates(as []answer, d time.Duration) []float64 {
	rates := make([]float64, int(d/capacityWindow))
	for _, a := range as {
		if w := int(a.Done / capacityWindow); a.Status == http.StatusOK && w < len(rates) {
			rates[w]++
		}
	}
	for i := range rates {
		rates[i] /= capacityWindow.Seconds()
	}
	return rates
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// checkLate invalidates a run whose load generator fell behind its own
// schedule: its latencies would describe the generator, not the server.
func checkLate(late []float64) error {
	if q, ok := Percentile(late, 0.99); ok && q.Value > lateBoundMS {
		return fmt.Errorf("run invalid: the load generator fell behind its schedule (late p%.1f = %.1f ms > %d ms)",
			100*q.P, q.Value, lateBoundMS)
	}
	return nil
}

func latencies(as []answer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.LatMS
	}
	return out
}

func countOK(as []answer) int {
	n := 0
	for _, a := range as {
		if a.Status == http.StatusOK {
			n++
		}
	}
	return n
}
