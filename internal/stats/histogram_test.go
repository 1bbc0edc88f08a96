package stats

import (
	"math"
	"testing"
	"testing/quick"

	"rppm/internal/prng"
)

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Tail().FracAbove(10) != 0 {
		t.Fatal("FracAbove on empty histogram should be 0")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("Quantile on empty histogram should be 0")
	}
}

func TestLinearExact(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// Values strictly above 49: 50..99 = 50 samples.
	if got := h.CountAbove(49); math.Abs(got-50) > 1e-9 {
		t.Fatalf("CountAbove(49) = %v, want 50", got)
	}
	if got := h.Mean(); math.Abs(got-49.5) > 1e-9 {
		t.Fatalf("Mean = %v, want 49.5", got)
	}
}

func TestInfiniteSamples(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Add(Infinite)
	h.Add(Infinite)
	if h.InfiniteCount() != 2 {
		t.Fatalf("infinite count = %d", h.InfiniteCount())
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	// Infinite samples are always "above".
	if got := h.Tail().FracAbove(1 << 40); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("FracAbove = %v, want 2/3", got)
	}
	// Mean ignores infinite samples.
	if h.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", h.Mean())
	}
}

func TestLogBucketBoundsRoundTrip(t *testing.T) {
	for _, v := range []int64{4096, 5000, 8191, 8192, 100000, 1 << 30, 1 << 40} {
		b := logBucket(v)
		lo, hi := logBucketBounds(b)
		if v < lo || v >= hi {
			t.Errorf("value %d mapped to bucket [%d,%d)", v, lo, hi)
		}
	}
}

func TestCountAboveMonotonic(t *testing.T) {
	h := NewHistogram()
	r := prng.New(1)
	for i := 0; i < 20000; i++ {
		h.Add(int64(r.Uint64n(1 << 20)))
	}
	prev := math.Inf(1)
	for v := int64(0); v < 1<<20; v += 1 << 12 {
		cur := h.CountAbove(v)
		if cur > prev+1e-6 {
			t.Fatalf("CountAbove not monotonically decreasing at %d: %v > %v", v, cur, prev)
		}
		prev = cur
	}
}

func TestFracAboveBounds(t *testing.T) {
	h := NewHistogram()
	r := prng.New(2)
	for i := 0; i < 5000; i++ {
		h.Add(int64(r.Uint64n(1 << 24)))
	}
	tail := h.Tail()
	f := func(v uint32) bool {
		fr := tail.FracAbove(int64(v))
		return fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	r := prng.New(3)
	ref := NewHistogram()
	for i := 0; i < 3000; i++ {
		v := int64(r.Uint64n(1 << 16))
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		ref.Add(v)
	}
	a.Merge(b)
	if a.Count() != ref.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), ref.Count())
	}
	for _, p := range []int64{0, 100, 5000, 60000} {
		if math.Abs(a.CountAbove(p)-ref.CountAbove(p)) > 1e-6 {
			t.Fatalf("merged CountAbove(%d) mismatch", p)
		}
	}
}

func TestMergeNil(t *testing.T) {
	h := NewHistogram()
	h.Add(1)
	h.Merge(nil) // must not panic
	if h.Count() != 1 {
		t.Fatal("Merge(nil) changed the histogram")
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 1000; i++ {
		h.Add(i)
	}
	med := h.Quantile(0.5)
	if med < 450 || med > 550 {
		t.Fatalf("median = %d, want ~500", med)
	}
	if q := h.Quantile(1.0); q < 990 {
		t.Fatalf("q100 = %d, want ~999", q)
	}
}

func TestBucketsTotalCount(t *testing.T) {
	h := NewHistogram()
	r := prng.New(5)
	for i := 0; i < 10000; i++ {
		h.Add(int64(r.Uint64n(1 << 22)))
	}
	h.Add(Infinite)
	var total uint64
	h.Buckets(func(_ int64, c uint64) { total += c })
	if total != h.Count() {
		t.Fatalf("bucket total %d != count %d", total, h.Count())
	}
}

func TestNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Add(-5)
	if h.Count() != 1 || h.Mean() != 0 {
		t.Fatal("negative value not clamped to 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("median of empty = %v", m)
	}
}

func TestMeanMaxAbs(t *testing.T) {
	xs := []float64{-1, 2, -3}
	if MeanAbs(xs) != 2 {
		t.Fatal("MeanAbs")
	}
	if MaxAbs(xs) != 3 {
		t.Fatal("MaxAbs")
	}
	if MeanAbs(nil) != 0 || MaxAbs(nil) != 0 {
		t.Fatal("empty abs stats")
	}
}

func TestAddNZero(t *testing.T) {
	h := NewHistogram()
	h.AddN(5, 0)
	if h.Count() != 0 {
		t.Fatal("AddN with zero count changed histogram")
	}
}

func BenchmarkAdd(b *testing.B) {
	h := NewHistogram()
	r := prng.New(1)
	for i := 0; i < b.N; i++ {
		h.Add(int64(r.Uint64n(1 << 28)))
	}
}
