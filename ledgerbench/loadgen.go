package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rppm/internal/prng"
	"rppm/internal/stats"
)

const (
	// minPhaseSamples is how many requests a serving leg's load phase
	// aims to send, so its p99 has ten samples beyond it; at a rate too
	// low for that within half the run, the phase stops at half the run.
	minPhaseSamples = 1000
	// maxLateP99 and maxLateShare set the generator lateness limit: a
	// phase whose p99 dispatch lateness exceeds both maxLateP99 and
	// maxLateShare of its measured p99 latency is invalid, not measured,
	// because the generator's own delay would dominate what it reports.
	// Timer wake-ups here land about 1.05 ms late at p99 on a quiet host;
	// a busy shared host delays them by 5-15 ms for tens of seconds.
	maxLateP99   = 2 * time.Millisecond
	maxLateShare = 0.1
	// zipfTheta skews key popularity. It is YCSB's default zipfian
	// constant, not a figure fitted to traffic: the repository has no
	// request logs.
	zipfTheta = 0.99
)

// key is one /v1/predict target.
type key struct {
	Bench    string
	Config   string
	Seed     uint64
	Scale    float64
	Simulate bool
}

func (k key) path() string {
	q := "/v1/predict?bench=" + url.QueryEscape(k.Bench) + "&config=" + url.QueryEscape(k.Config) +
		"&seed=" + strconv.FormatUint(k.Seed, 10) + "&scale=" + strconv.FormatFloat(k.Scale, 'g', -1, 64)
	if k.Simulate {
		q += "&simulate=1"
	}
	return q
}

// client sends requests to one server over at most `workers` connections
// and checks every 2xx body against the expected bytes for its key.
type client struct {
	base    string
	http    *http.Client
	tr      *http.Transport
	workers int
}

func newClient(base string, workers int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, workers: workers}
}

func (c *client) Close() { c.tr.CloseIdleConnections() }

// outcome classifies one request.
type outcome int

const (
	okay outcome = iota
	failed
	refused
	wrong
)

// get fetches one key; want, when non-nil, is the body a 2xx must match.
func (c *client) get(k key, want []byte) outcome {
	resp, err := c.http.Get(c.base + k.path())
	if err != nil {
		return failed
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return failed
	case resp.StatusCode == http.StatusTooManyRequests:
		return refused
	case resp.StatusCode/100 != 2:
		return failed
	case want != nil && !bytes.Equal(body, want):
		return wrong
	}
	return okay
}

func (o *opCount) count(out outcome) {
	o.Attempted++
	switch out {
	case failed:
		o.Failed++
	case refused:
		o.Refused++
	case wrong:
		o.Wrong++
	}
}

// closedLoop requests keys[i] for each i in order, `conns` at a time,
// and returns the wall time of the whole pass.
func (c *client) closedLoop(keys []key, want [][]byte, order []int, conns int, ops *opCount) time.Duration {
	outs := make([]outcome, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				var exp []byte
				if want != nil {
					exp = want[order[i]]
				}
				outs[i] = c.get(keys[order[i]], exp)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, o := range outs {
		ops.count(o)
	}
	return wall
}

// poissonSchedule returns the arrival offsets of a Poisson process at rps,
// continuing until both minDur has elapsed and minN arrivals exist. The
// schedule depends only on its arguments.
func poissonSchedule(seed uint64, rps float64, minDur time.Duration, minN int) []time.Duration {
	src := prng.New(seed)
	var out []time.Duration
	t := 0.0
	for len(out) < minN || t < minDur.Seconds() {
		t += -math.Log(1-src.Float64()) / rps
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// zipfPicker draws key indices with zipf popularity over a fixed
// scramble of the key order, so which key is hottest does not depend on
// the seed and only the draw sequence does.
type zipfPicker struct {
	table *prng.ZipfTable
	perm  []int
}

func newZipfPicker(n int) *zipfPicker {
	perm := make([]int, n)
	prng.New(0x5eed).Perm(perm)
	return &zipfPicker{table: prng.NewZipfTable(n, zipfTheta), perm: perm}
}

func (z *zipfPicker) pick(src *prng.Source) int { return z.perm[z.table.Sample(src)] }

// hottest returns the n most popular key indices.
func (z *zipfPicker) hottest(n int) []int { return append([]int(nil), z.perm[:n]...) }

// phase is the accounting of one open-loop phase.
type phase struct {
	Name       string  `json:"name"`
	RateRPS    float64 `json:"rate_rps"`
	Seconds    float64 `json:"seconds"`
	Sent       int     `json:"sent"`
	Succeeded  int     `json:"succeeded"`
	Failed     int     `json:"failed"`
	Refused    int     `json:"refused"`
	Wrong      int     `json:"wrong"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	HistP99Ms  float64 `json:"hist_p99_ms"` // stats.LatencyHistogram bucket bound, as /metrics reports it
	LateP99Ms  float64 `json:"late_ms_p99"`
	BacklogMax int     `json:"backlog_max"`
	Valid      bool    `json:"valid"`
	Invalid    string  `json:"invalid,omitempty"`
}

func (p *phase) ops() opCount {
	return opCount{Attempted: p.Sent, Failed: p.Failed, Refused: p.Refused, Wrong: p.Wrong}
}

// openLoop sends requests at the Poisson arrival times of sched, each for
// the key pick draws, through the client's connections. Latency runs from
// each request's due time, so a stall is charged to every request queued
// behind it; the phase also records how late the generator dispatched and
// how many due requests waited for a free connection.
func (c *client) openLoop(name string, rps float64, sched []time.Duration, keyIdx []int,
	keys []key, want [][]byte) phase {
	n := len(sched)
	lat := make([]float64, n)
	outs := make([]outcome, n)
	late := make([]float64, n)
	backlog := make([]int, n)
	// Sized to the number of sends: the dispatcher never blocks, so a slow
	// server grows this queue instead of delaying arrivals.
	queue := make(chan int, n)
	var started atomic.Int64
	var wg sync.WaitGroup
	var start time.Time
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				k := keyIdx[i]
				var exp []byte
				if want != nil {
					exp = want[k]
				}
				outs[i] = c.get(keys[k], exp)
				lat[i] = ms(time.Since(start.Add(sched[i])))
			}
		}()
	}
	start = time.Now()
	for i, due := range sched {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(start.Add(due)))
		backlog[i] = i - int(started.Load())
		queue <- i
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start)

	p := phase{Name: name, RateRPS: rps, Seconds: wall.Seconds(), Sent: n}
	var hist stats.LatencyHistogram
	for i, o := range outs {
		switch o {
		case okay:
			p.Succeeded++
		case failed:
			p.Failed++
		case refused:
			p.Refused++
		case wrong:
			p.Wrong++
		}
		hist.Observe(time.Duration(lat[i] * float64(time.Millisecond)))
		if backlog[i] > p.BacklogMax {
			p.BacklogMax = backlog[i]
		}
	}
	// A failed or refused request misses any latency limit: its latency
	// stays in the sample as measured, never dropped.
	p.P50Ms = quantile(lat, 0.5)
	p.P99Ms = quantile(lat, 0.99)
	p.HistP99Ms = ms(hist.Quantile(0.99))
	p.LateP99Ms = quantile(late, 0.99)
	p.Valid = true
	if limit := math.Max(ms(maxLateP99), maxLateShare*p.P99Ms); p.LateP99Ms > limit {
		p.Valid = false
		p.Invalid = fmt.Sprintf("generator p99 lateness %.2f ms exceeds its %.2f ms limit", p.LateP99Ms, limit)
	}
	return p
}
