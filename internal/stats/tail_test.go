package stats_test

import (
	"math"
	"testing"

	"rppm/internal/prng"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/workload"
)

// denseCountAbove is the CountAbove that Tail replaced, kept as the
// bit-identity reference: a dense suffix-sum array over the exact-count
// range, then every non-empty log bucket in ascending order, with a
// uniform-interpolation fraction for the one straddling v.
func denseCountAbove(h *stats.Histogram) func(v int64) float64 {
	st := h.State()
	var suffix []uint64
	if st.HasLinear {
		suffix = make([]uint64, stats.LinearLen+1)
		for _, b := range st.Linear {
			suffix[b.Index] = b.Count
		}
		for i := stats.LinearLen - 1; i >= 0; i-- {
			suffix[i] += suffix[i+1]
		}
	}
	log := make([]uint64, st.LogLen)
	for _, b := range st.Log {
		log[b.Index] = b.Count
	}
	return func(v int64) float64 {
		if st.Count == 0 {
			return 0
		}
		total := float64(st.Infinite)
		if v < stats.LinearLen && suffix != nil {
			start := v + 1
			if start < 0 {
				start = 0
			}
			total += float64(suffix[start])
		}
		for b, c := range log {
			if c == 0 {
				continue
			}
			lo, hi := logBounds(b)
			switch {
			case lo > v:
				total += float64(c)
			case hi-1 <= v:
				// whole bucket at or below v
			default:
				frac := float64(hi-1-v) / float64(hi-lo)
				total += float64(c) * frac
			}
		}
		return total
	}
}

// logBounds mirrors the histogram's log-bucket layout: two buckets per
// octave, bucket 2·lg covering [2^lg, 1.5·2^lg) and 2·lg+1 the rest.
func logBounds(b int) (lo, hi int64) {
	lo = int64(1) << uint(b/2)
	mid := lo + lo/2
	hi = int64(1) << uint(b/2+1)
	if b%2 == 0 {
		return lo, mid
	}
	return mid, hi
}

// checkTail compares h's tail with the dense reference, bit for bit, at
// every probe in [-1, 2·max+1].
func checkTail(t *testing.T, name string, h *stats.Histogram) {
	t.Helper()
	ref := denseCountAbove(h)
	tail := h.Tail()
	if tail.Count() != h.Count() || tail.InfiniteCount() != h.InfiniteCount() {
		t.Fatalf("%s: tail counts %d/%d, histogram %d/%d", name,
			tail.Count(), tail.InfiniteCount(), h.Count(), h.InfiniteCount())
	}
	for v := int64(-1); v <= 2*h.Max()+1; v++ {
		got, want := tail.CountAbove(v), ref(v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: CountAbove(%d) = %v, dense reference %v", name, v, got, want)
		}
		if v%997 == 0 && math.Float64bits(h.CountAbove(v)) != math.Float64bits(want) {
			t.Fatalf("%s: Histogram.CountAbove(%d) = %v, dense reference %v", name, v, h.CountAbove(v), want)
		}
	}
}

// restored round-trips h through State and Restore, as the profile codec
// does.
func restored(t *testing.T, h *stats.Histogram) *stats.Histogram {
	t.Helper()
	r := stats.NewHistogram()
	if err := r.Restore(h.State()); err != nil {
		t.Fatal(err)
	}
	return r
}

// sealedCopy returns a sealed histogram with h's samples.
func sealedCopy(h *stats.Histogram) *stats.Histogram {
	s := stats.NewHistogram()
	s.Merge(h)
	s.Seal()
	return s
}

func TestTailMatchesDenseReference(t *testing.T) {
	r := prng.New(17)
	fill := func(n int, next func() int64) *stats.Histogram {
		h := stats.NewHistogram()
		for i := 0; i < n; i++ {
			h.Add(next())
		}
		return h
	}
	cases := map[string]*stats.Histogram{
		"empty":         stats.NewHistogram(),
		"linear-only":   fill(5000, func() int64 { return int64(r.Uint64n(4096)) }),
		"linear-sparse": fill(40, func() int64 { return int64(r.Uint64n(300)) }),
		"log-only":      fill(3000, func() int64 { return 4096 + int64(r.Uint64n(1<<16)) }),
		"mixed":         fill(8000, func() int64 { return int64(r.Uint64n(1 << 15)) }),
		"infinite-heavy": fill(2000, func() int64 {
			if r.Uint64n(10) < 9 {
				return stats.Infinite
			}
			return int64(r.Uint64n(20000))
		}),
		"infinite-only": fill(50, func() int64 { return stats.Infinite }),
	}
	// At 2^53 the float ulp is 2, so adding the straddling bucket's
	// fraction before or after the bucket above it rounds differently:
	// this case pins the ascending addition order.
	ordered := stats.NewHistogram()
	ordered.AddN(stats.Infinite, 1<<53)
	ordered.AddN(5000, 3)
	ordered.AddN(7000, 1)
	cases["rounding-order"] = ordered
	merged := fill(500, func() int64 { return int64(r.Uint64n(9000)) })
	merged.Merge(cases["infinite-heavy"])
	cases["merged"] = merged
	for name, h := range cases {
		checkTail(t, name, h)
		checkTail(t, name+"/restored", restored(t, h))
		checkTail(t, name+"/sealed", sealedCopy(h))
	}
}

// TestTailMatchesDenseReferenceDecodedProfile checks every histogram of a
// profile that went through the profile codec.
func TestTailMatchesDenseReferenceDecodedProfile(t *testing.T) {
	bm, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.Run(bm.Build(1, 0.1), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := profilefmt.Encode(prof, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := profilefmt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var logged, infinite bool
	for _, th := range dec.Threads {
		for _, ep := range th.Epochs {
			for _, h := range []*stats.Histogram{ep.PrivateRD, ep.GlobalRD, ep.InstrRD} {
				checkTail(t, "decoded", h)
				logged = logged || h.Max() >= stats.LinearLen
				infinite = infinite || h.InfiniteCount() > 0
			}
		}
	}
	if !logged || !infinite {
		t.Fatalf("decoded profile lacks log-bucket (%v) or infinite (%v) samples", logged, infinite)
	}
}
