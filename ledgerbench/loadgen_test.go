package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"rppm/internal/prng"
	"rppm/internal/stats"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 1000, time.Second, 500)
	b := poissonSchedule(7, 1000, time.Second, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, time.Second, 500)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	if a[len(a)-1] < time.Second {
		t.Fatalf("schedule ends at %v, before its minimum duration", a[len(a)-1])
	}
	// 1 s at 1000/s: the count is Poisson(1000), within 5 sigma of it.
	if n := float64(len(a)); math.Abs(n-1000) > 5*math.Sqrt(1000) {
		t.Fatalf("%v arrivals in 1 s at 1000/s", n)
	}
	if got := poissonSchedule(7, 10, time.Millisecond, 1000); len(got) < 1000 {
		t.Fatalf("minimum count not honoured: %d arrivals", len(got))
	}
}

// TestLatencyHistogramMatchesSortedReference checks that the server's
// histogram quantiles, which /metrics reports, bound the exact quantile of
// the sorted samples from above by at most one power-of-two bucket.
func TestLatencyHistogramMatchesSortedReference(t *testing.T) {
	src := prng.New(42)
	var h stats.LatencyHistogram
	samples := make([]time.Duration, 20000)
	for i := range samples {
		// Log-uniform between 1 µs and 100 ms.
		us := math.Pow(10, 5*src.Float64())
		samples[i] = time.Duration(us * float64(time.Microsecond))
		h.Observe(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		ref := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.Quantile(q)
		if got <= ref || got > 2*ref {
			t.Errorf("q=%v: histogram %v, sorted reference %v: outside (ref, 2*ref]", q, got, ref)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	n := &spanNode{dur: 100, children: []*spanNode{
		{start: 10, dur: 20}, // [10, 30)
		{start: 20, dur: 20}, // [20, 40), overlaps the first
		{start: 60, dur: 10}, // [60, 70)
	}}
	if got := n.self(); got != 60 {
		t.Fatalf("self = %v, want 60", got)
	}
}

// TestOpenLoopAccounting drives the generator against a stub server that
// answers one key wrongly and refuses another, and checks the per-phase
// counts.
func TestOpenLoopAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("bench") {
		case "refused":
			w.WriteHeader(http.StatusTooManyRequests)
		case "wrong":
			io.WriteString(w, "other\n")
		default:
			io.WriteString(w, "ok\n")
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.Close()
	keys := []key{{Bench: "good"}, {Bench: "wrong"}, {Bench: "refused"}}
	want := [][]byte{[]byte("ok\n"), []byte("ok\n"), []byte("ok\n")}
	sched := poissonSchedule(3, 2000, 0, 300)
	idx := make([]int, len(sched))
	counts := make([]int, len(keys))
	for i := range idx {
		idx[i] = i % len(keys)
		counts[idx[i]]++
	}
	p := c.openLoop("test", 2000, sched, idx, keys, want)
	if p.Sent != len(sched) || p.Succeeded != counts[0] || p.Wrong != counts[1] || p.Refused != counts[2] || p.Failed != 0 {
		t.Fatalf("phase %+v, want sent %d ok %d wrong %d refused %d", p, len(sched), counts[0], counts[1], counts[2])
	}
	if p.P50Ms <= 0 || p.P99Ms < p.P50Ms {
		t.Fatalf("latency percentiles p50 %v p99 %v", p.P50Ms, p.P99Ms)
	}
	var ops opCount
	c.closedLoop(keys, want, []int{0, 1, 2, 0}, 2, &ops)
	if ops != (opCount{Attempted: 4, Wrong: 1, Refused: 1}) {
		t.Fatalf("closed loop counted %+v", ops)
	}
}
