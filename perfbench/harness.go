package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/boot"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/serve"
)

// stateKey names the directory that keeps the trained weights and the
// answer table: a hash of every file the tenant's model and answers
// depend on, namely the repository's non-test Go sources under
// internal/, go.mod, and the tenant's configuration in tenant.go. A
// change to the served program trains afresh and starts a new answer
// table; a change to the rest of the benchmark keeps both. It reads
// the files relative to the working directory, the repository root.
func stateKey() (string, error) {
	files := []string{"go.mod", filepath.Join("perfbench", "tenant.go")}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing the served program's sources (run from the repository root): %w", err)
	}
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		// hash.Hash writes never fail.
		_, _ = fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// provision returns the path of the trained tenant weights in dir,
// training and saving them first when dir has none yet. It reports the
// training time when it trained (0 when the weights were already
// there).
func provision(ctx context.Context, dir string) (string, float64, error) {
	path := filepath.Join(dir, "seq2seq.bin")
	if _, err := os.Stat(path); err == nil {
		return path, 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	start := now()
	sp := tenantSpec("")
	u, err := boot.Build(ctx, sp)
	if err != nil {
		return "", 0, err
	}
	trainS := now().Sub(start).Seconds()
	m, ok := u.Model.(*models.Seq2Seq)
	if !ok {
		return "", 0, fmt.Errorf("provision: built %T, want *models.Seq2Seq", u.Model)
	}
	tmp, err := os.CreateTemp(dir, "seq2seq-*.tmp")
	if err != nil {
		return "", 0, err
	}
	err = m.SaveFull(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		if rmErr := os.Remove(tmp.Name()); rmErr != nil && !os.IsNotExist(rmErr) {
			err = errors.Join(err, rmErr)
		}
		return "", 0, err
	}
	return path, trainS, nil
}

// server is one booted tenant behind serve.Server on a loopback
// listener.
type server struct {
	srv  *serve.Server
	unit *boot.Unit
	errc <-chan error
	cl   *client
	// tally counts the /ask exchanges this server has seen from the
	// client, for the /statsz reconciliation.
	tally tally
}

// startServer runs one set-up: boot.Build, serve.NewMulti, Start on a
// loopback port, then polls /readyz until it answers 200. It returns
// the set-up time in seconds. A non-nil rec installs the timing
// wrappers in the unit before the server is built.
func startServer(ctx context.Context, weights string, rec *recorder, conns int) (*server, float64, error) {
	start := now()
	u, err := boot.Build(ctx, tenantSpec(weights))
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		if err := rec.install(u); err != nil {
			return nil, 0, err
		}
	}
	srv := serve.NewMulti([]*boot.Unit{u}, serveConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &server{srv: srv, unit: u, errc: srv.Start(ln), cl: newClient("http://"+ln.Addr().String(), conns)}
	for {
		status, _, err := s.cl.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if werr := sleepUntil(ctx, now().Add(time.Millisecond)); werr != nil {
			return nil, 0, errors.Join(werr, s.stop(ctx))
		}
	}
	return s, now().Sub(start).Seconds(), nil
}

// stop drains the server and waits for its accept loop to end.
func (s *server) stop(ctx context.Context) error {
	s.cl.close()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// stats fetches the /statsz snapshot.
func (s *server) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	err := s.cl.getJSON(ctx, "/statsz", &st)
	return st, err
}

// tally is the client's own count of /ask exchanges.
type tally struct {
	sent, ok, non200 int64
}

func (t *tally) add(as []answer) {
	for _, a := range as {
		t.sent++
		if a.Status == http.StatusOK {
			t.ok++
		} else {
			t.non200++
		}
	}
}

// reconcile checks the client's counts against the tenant's /statsz
// row: every request sent was admitted or shed, every 200 is a
// completion, and every non-200 a failure or a shed. (The benchmark's
// requests are always well-formed, so none is refused before
// admission.)
func reconcile(t tally, row serve.TenantStats) error {
	var errs []string
	if got := row.Accepted + row.Shed; got != t.sent {
		errs = append(errs, fmt.Sprintf("sent %d, but accepted+shed = %d", t.sent, got))
	}
	if row.Completed != t.ok {
		errs = append(errs, fmt.Sprintf("200s %d, but completed = %d", t.ok, row.Completed))
	}
	if got := row.Failed + row.Shed; got != t.non200 {
		errs = append(errs, fmt.Sprintf("non-200s %d, but failed+shed = %d", t.non200, got))
	}
	if len(errs) > 0 {
		return fmt.Errorf("statsz reconciliation: %s", strings.Join(errs, "; "))
	}
	return nil
}

// rssPoll is how often peakRSSDuring samples the resident set.
const rssPoll = 20 * time.Millisecond

// peakRSSDuring runs f while sampling the process's resident set every
// rssPoll, and returns the largest sample in MiB.
func peakRSSDuring(ctx context.Context, f func() error) (float64, error) {
	var (
		peak       float64
		ferr, serr error
		finished   atomic.Bool
	)
	err := par.MapCtx(ctx, 2, 2, func(i int) {
		if i == 0 {
			ferr = f()
			finished.Store(true)
			return
		}
		for !finished.Load() {
			mb, err := rssMB()
			if err != nil {
				serr = err
				return
			}
			peak = max(peak, mb)
			if sleepUntil(ctx, now().Add(rssPoll)) != nil {
				return
			}
		}
	})
	return peak, errors.Join(err, ferr, serr)
}

// rssMB reads the process's current resident set in MiB.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
