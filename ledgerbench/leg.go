package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rppm/internal/arch"
	"rppm/internal/obs"
	"rppm/internal/server"
	"rppm/internal/workload"
)

const (
	// legHot is how many of the most popular keys the in-process
	// decomposition cycles through on an unbounded server, and legReps
	// how often.
	legHot  = 8
	legReps = 100
)

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.h }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *respWriter) WriteHeader(code int)        { w.code = code }

func (w *respWriter) reset() {
	w.code = http.StatusOK
	w.body.Reset()
}

// loop times fn over every hot key legReps times under one span and
// returns the median call in microseconds. The median leaves out calls a
// collection or a preemption landed on, which would otherwise decide the
// layer sums of a few microseconds each.
func loop(ctx context.Context, name string, hot []int, fn func(i int) time.Duration) float64 {
	sp := obs.Start(ctx, name)
	defer sp.End()
	us := make([]float64, 0, legReps*len(hot))
	for rep := 0; rep < legReps; rep++ {
		for _, i := range hot {
			us = append(us, float64(fn(i).Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// serveLeg measures the serving layers on s: an open-loop zipf phase over
// keys at rate, then the nHot hottest keys' requests decomposed in process —
// the whole handler, and separately name resolution, server.BuildPredict,
// response encoding and a session cache hit — and a timed loopback round
// trip of the same requests. With assertSums the layer-sum checks gate the
// run; otherwise their figures are only recorded.
func serveLeg(rc *runCtx, r *report, s *served, keys []key, want [][]byte, rate float64, nHot int, assertSums bool) (*obs.Trace, error) {
	tr := obs.New("serve")
	ctx := obs.WithTrace(context.Background(), tr)
	defer tr.Finish()
	c := newClient(s.base, rc.workers)
	defer c.Close()

	dur := time.Duration(math.Min(rc.seconds.Seconds()/2, minPhaseSamples/rate) * float64(time.Second))
	sp := obs.Start(ctx, "loadgen.phase")
	p := trafficPhase(c, keys, want, "leg", rc.seed, rate, dur, 0)
	sp.End()
	r.Ops.add(p.ops())
	r.Detail["phases"] = []phase{p}
	r.set("loadgen.sent", "count", float64(p.Sent))
	r.set("loadgen.failed", "count", float64(p.Failed+p.Refused+p.Wrong))
	r.set("loadgen.late_ms_p99", "ms", p.LateP99Ms)
	r.set("loadgen.backlog_max", "count", float64(p.BacklogMax))

	hot := newZipfPicker(len(keys)).hottest(min(nHot, len(keys)))
	sess := s.srv.Session()
	reqs := make([]*http.Request, len(keys))
	preqs := make([]server.PredictRequest, len(keys))
	bms := make([]workload.Benchmark, len(keys))
	cfgs := make([]arch.Config, len(keys))
	for _, i := range hot {
		k := keys[i]
		reqs[i] = httptest.NewRequest(http.MethodGet, k.path(), nil)
		preqs[i] = server.PredictRequest{Bench: k.Bench, Config: k.Config, Seed: k.Seed, Scale: k.Scale, Simulate: k.Simulate}
		var err error
		if bms[i], err = workload.ResolveBenchmark(k.Bench); err != nil {
			return nil, err
		}
		if cfgs[i], err = configNamed(k.Config); err != nil {
			return nil, err
		}
	}
	bg := context.Background()
	h := s.srv.Handler()
	w := &respWriter{h: http.Header{}}
	mismatched := 0
	check := func(i int, body []byte, err error) {
		r.Ops.Attempted++
		if err != nil {
			r.Ops.Failed++
		} else if !bytes.Equal(body, want[i]) {
			mismatched++
			r.Ops.Wrong++
		}
	}

	handler := loop(ctx, "server.handler", hot, func(i int) time.Duration {
		w.reset()
		t := time.Now()
		h.ServeHTTP(w, reqs[i])
		d := time.Since(t)
		check(i, w.body.Bytes(), nil)
		return d
	})
	resolve := loop(ctx, "workload.resolve", hot, func(i int) time.Duration {
		t := time.Now()
		_, err := workload.ResolveBenchmark(keys[i].Bench)
		d := time.Since(t)
		if err != nil {
			r.Ops.Failed++
		}
		return d
	})
	resps := make([]*server.PredictResponse, len(keys))
	build := loop(ctx, "server.build", hot, func(i int) time.Duration {
		t := time.Now()
		resp, err := server.BuildPredict(bg, sess, bms[i], cfgs[i], preqs[i])
		d := time.Since(t)
		if err != nil {
			r.Ops.Failed++
		}
		resps[i] = resp
		return d
	})
	var buf bytes.Buffer
	encode := loop(ctx, "server.encode", hot, func(i int) time.Duration {
		buf.Reset()
		t := time.Now()
		err := json.NewEncoder(&buf).Encode(resps[i])
		d := time.Since(t)
		check(i, buf.Bytes(), err)
		return d
	})
	hit := loop(ctx, "engine.hit", hot, func(i int) time.Duration {
		t := time.Now()
		_, err := sess.Predict(bg, bms[i], keys[i].Seed, keys[i].Scale, cfgs[i])
		d := time.Since(t)
		if err != nil {
			r.Ops.Failed++
		}
		return d
	})
	rt := loop(ctx, "http.roundtrip", hot, func(i int) time.Duration {
		t := time.Now()
		out := c.get(keys[i], want[i])
		d := time.Since(t)
		r.Ops.count(out)
		if out == wrong {
			mismatched++
		}
		return d
	})
	allocs := func() float64 {
		sp := obs.Start(ctx, "server.allocs")
		defer sp.End()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, i := range hot {
			w.reset()
			h.ServeHTTP(w, reqs[i])
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(hot))
	}()

	parts := resolve + build + encode
	r.set("workload.resolve_us", "us", resolve)
	r.set("server.build_us", "us", build)
	r.set("server.encode_us", "us", encode)
	r.set("server.handler_us", "us", handler)
	r.set("server.other_us", "us", handler-parts)
	r.set("server.allocs_per_req", "count", allocs)
	r.set("engine.hit_us", "us", hit)
	r.set("http.roundtrip_us", "us", rt)
	r.set("http.transport_us", "us", rt-handler)
	r.check("served-bodies", mismatched == 0, "every in-process and loopback body equals server.BuildPredict")
	if assertSums {
		share := parts / handler
		r.check("layer-sum-handler", share <= partsMax,
			"resolve+build+encode = %.1f us is %.0f%% of the %.1f us handler (tolerance: at most %.0f%%)",
			parts, 100*share, handler, 100*partsMax)
		r.check("layer-sum-roundtrip", handler <= handlerMax*rt,
			"handler %.1f us + transport %.1f us = round trip %.1f us (handler may exceed it by %.0f%%)",
			handler, rt-handler, rt, 100*(handlerMax-1))
	}

	st := sess.Stats()
	wait := s.events.poolWait()
	lookups := float64(st.Hits + st.Misses + st.Coalesced)
	r.set("engine.hit_ratio", "ratio", float64(st.Hits)/lookups)
	r.set("engine.evictions", "count", float64(st.Evictions))
	r.set("engine.demotions", "count", float64(st.Profiles.Demotions))
	r.set("engine.promotions", "count", float64(st.Profiles.Promotions))
	r.set("engine.profile_runs", "count", float64(st.Profiles.Runs))
	r.set("engine.profile_loads", "count", float64(st.Profiles.Loads))
	r.set("engine.pool_wait_ms", "ms", ms(wait))
	r.set("engine.bytes_resident_mb", "MB", float64(st.BytesResident)/1e6)
	r.Detail["engine_stats"] = st

	counters, err := scrapeMetrics(c, s.base)
	if err != nil {
		return nil, err
	}
	r.set("store.retries", "count", counters["rppm_store_retries_total"])
	r.set("store.quarantined", "count", counters["rppm_store_quarantined_total"])
	return tr, nil
}

// scrapeMetrics reads the unlabelled series of the server's /metrics.
func scrapeMetrics(c *client, base string) (map[string]float64, error) {
	resp, err := c.http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
