package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/prng"
	"rppm/internal/server"
	"rppm/internal/workload"
)

const (
	// hotRate and churnRate are the fixed open-loop rates of the serving
	// legs' load phases, in requests per second: an unbounded server
	// answers from its cache, a budgeted one reloads and re-profiles.
	hotRate   = 1000
	churnRate = 40
	// churnBudgetShare is the churn leg's cache budget as a share of the
	// fully resident key set.
	churnBudgetShare = 0.2
)

// loadKeys returns the serve keys: every registry entry at its pinned
// seed and scale times the five arch.DesignSpace points.
func loadKeys() ([]key, error) {
	reg, err := loadRegistry()
	if err != nil {
		return nil, err
	}
	var keys []key
	for _, e := range reg.Entries {
		if _, err := e.Benchmark(); err != nil {
			return nil, err
		}
		for _, c := range arch.DesignSpace() {
			keys = append(keys, key{Bench: e.Name, Config: c.Name, Seed: e.Seed, Scale: e.Scale})
		}
	}
	return keys, nil
}

// withSim returns the keys with the reference simulation requested.
func withSim(keys []key) []key {
	out := make([]key, len(keys))
	for i, k := range keys {
		k.Simulate = true
		out[i] = k
	}
	return out
}

// eventLog sums the time the engine's jobs waited for a pool worker.
type eventLog struct {
	mu   sync.Mutex
	wait time.Duration
}

func (l *eventLog) add(ev engine.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wait += ev.Wait
}

func (l *eventLog) poolWait() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wait
}

// served is an in-process server listening on a loopback port.
type served struct {
	srv    *server.Server
	hs     *http.Server
	done   chan error
	base   string
	events *eventLog
}

func startServer(cfg server.Config) (*served, error) {
	ev := &eventLog{}
	cfg.Progress = ev.add
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1), base: "http://" + ln.Addr().String(), events: ev}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// Close shuts the listener down and waits for the serve goroutine.
func (s *served) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// expectedBodies builds each key's response in process with
// server.BuildPredict on sess, encoded exactly as the handler encodes it.
func expectedBodies(sess *engine.Session, keys []key) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		bm, err := workload.ResolveBenchmark(k.Bench)
		if err != nil {
			return nil, err
		}
		cfg, err := configNamed(k.Config)
		if err != nil {
			return nil, err
		}
		resp, err := server.BuildPredict(context.Background(), sess, bm, cfg,
			server.PredictRequest{Bench: k.Bench, Config: k.Config, Seed: k.Seed, Scale: k.Scale, Simulate: k.Simulate})
		if err != nil {
			return nil, fmt.Errorf("BuildPredict %s/%s: %w", k.Bench, k.Config, err)
		}
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(resp); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

func configNamed(name string) (arch.Config, error) {
	for _, c := range arch.DesignSpace() {
		if c.Name == name {
			return c, nil
		}
	}
	return arch.Config{}, fmt.Errorf("unknown config %q", name)
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// warm requests every key with simulate=1 over one connection, so the
// server records, profiles and simulates each, and returns the bytes the
// session then holds resident.
func warm(s *served, traffic []key, ops *opCount) (int64, error) {
	keys := withSim(traffic)
	c := newClient(s.base, 1)
	defer c.Close()
	var local opCount
	c.closedLoop(keys, nil, identity(len(keys)), 1, &local)
	ops.add(local)
	if local.bad() > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d requests failed", local.bad(), local.Attempted)
	}
	return s.srv.Session().Stats().BytesResident, nil
}

// serveEnv is a set-up churn server: the measured server, the key set
// and the expected bodies.
type serveEnv struct {
	s        *served
	keys     []key    // traffic keys (Simulate false)
	want     [][]byte // expected bodies of keys
	traceDir string
}

func (e *serveEnv) Close() error {
	err := e.s.Close()
	if e.traceDir != "" {
		if rerr := os.RemoveAll(e.traceDir); err == nil {
			err = rerr
		}
	}
	return err
}

// setupChurn pre-fills a fresh trace directory by warming every key on an
// unbounded server (which spills each trace and profile), computes the
// expected bodies from that server's session, then starts the measured
// server on the directory with a budget of churnBudgetShare of the fully
// resident set.
func setupChurn(rc *runCtx, r *report) (_ *serveEnv, err error) {
	dir, err := os.MkdirTemp(rc.outDir, "churn-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	keys, err := loadKeys()
	if err != nil {
		return nil, err
	}
	fill, err := startServer(server.Config{Workers: rc.workers, TraceDir: dir})
	if err != nil {
		return nil, err
	}
	resident, err := warm(fill, keys, &r.Ops)
	var want [][]byte
	if err == nil {
		want, err = expectedBodies(fill.srv.Session(), keys)
	}
	if cerr := fill.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	budget := int64(float64(resident) * churnBudgetShare)
	s, err := startServer(server.Config{Workers: rc.workers, TraceDir: dir, MaxBytes: budget})
	if err != nil {
		return nil, err
	}
	r.Detail["churn_budget_bytes"] = budget
	r.Detail["resident_bytes_full"] = resident
	// Collect the pre-fill's garbage and return it to the OS now, so
	// neither the collector nor the background scavenger runs during
	// measurement.
	debug.FreeOSMemory()
	return &serveEnv{s: s, keys: keys, want: want, traceDir: dir}, nil
}

// trafficPhase runs one open-loop phase at rate over keys with zipf
// popularity, for at least dur and minN requests.
func trafficPhase(c *client, keys []key, want [][]byte, name string, seed uint64, rate float64,
	dur time.Duration, minN int) phase {
	sched := poissonSchedule(seed, rate, dur, minN)
	z := newZipfPicker(len(keys))
	src := prng.New(seed ^ 0x6b65)
	idx := make([]int, len(sched))
	for i := range idx {
		idx[i] = z.pick(src)
	}
	return c.openLoop(name, rate, sched, idx, keys, want)
}
