package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestSealMatchesOpen records the same samples into an open histogram and
// plain dense count arrays, then checks the sealed form against both: its
// sparse state against the arrays, and every query against the open
// histogram, bit for bit.
func TestSealMatchesOpen(t *testing.T) {
	r := prng.New(5)
	open := NewHistogram()
	var lin [linearCutoff]uint64
	var log [maxLogBuckets]uint64
	for i := 0; i < 4000; i++ {
		v := int64(r.Uint64n(1 << (1 + r.Uint64n(24))))
		if r.Uint64n(20) == 0 {
			v = Infinite
		}
		open.Add(v)
		switch {
		case v == Infinite:
		case v < linearCutoff:
			lin[v]++
		default:
			log[logBucket(v)]++
		}
	}
	sealed := NewHistogram()
	sealed.Merge(open)
	sealed.Seal()

	st := sealed.State()
	if !st.HasLinear || st.LogLen != maxLogBuckets {
		t.Fatalf("sealed shape: linear %v, %d log buckets", st.HasLinear, st.LogLen)
	}
	var gotLin [linearCutoff]uint64
	var gotLog [maxLogBuckets]uint64
	for _, b := range st.Linear {
		gotLin[b.Index] = b.Count
	}
	for _, b := range st.Log {
		gotLog[b.Index] = b.Count
	}
	if gotLin != lin || gotLog != log {
		t.Fatal("sealed counts differ from the recorded samples")
	}
	if !reflect.DeepEqual(st, open.State()) {
		t.Fatal("sealed and open states differ")
	}

	if sealed.Count() != open.Count() || sealed.InfiniteCount() != open.InfiniteCount() ||
		sealed.Max() != open.Max() || math.Float64bits(sealed.Mean()) != math.Float64bits(open.Mean()) {
		t.Fatal("sealed scalars differ")
	}
	for v := int64(-1); v < 1<<25; v = v*5/4 + 1 {
		if math.Float64bits(sealed.CountAbove(v)) != math.Float64bits(open.CountAbove(v)) {
			t.Fatalf("CountAbove(%d): sealed %v, open %v", v, sealed.CountAbove(v), open.CountAbove(v))
		}
	}
	for _, q := range []float64{-0.5, 0, 1e-9, 0.01, 0.25, 0.5, 0.9, 0.999, 1, 1.5, math.NaN()} {
		if got, want := sealed.Quantile(q), open.Quantile(q); got != want {
			t.Fatalf("Quantile(%v): sealed %d, open %d", q, got, want)
		}
	}
	type bucket struct {
		v int64
		c uint64
	}
	var got, want []bucket
	sealed.Buckets(func(v int64, c uint64) { got = append(got, bucket{v, c}) })
	open.Buckets(func(v int64, c uint64) { want = append(want, bucket{v, c}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sealed and open buckets differ")
	}

	if sealed.Tail() != sealed.Tail() {
		t.Fatal("a sealed histogram's Tail is copied, not shared")
	}
	if got, want := sealed.SizeBytes(), int64(unsafe.Sizeof(*sealed))+sealed.Tail().SizeBytes(); got != want {
		t.Fatalf("sealed SizeBytes %d, want struct + tail = %d", got, want)
	}
	if sealed.SizeBytes() >= open.SizeBytes()/4 {
		t.Fatalf("sealed %d B against open %d B", sealed.SizeBytes(), open.SizeBytes())
	}
}

// TestSealIntoReusesScratch checks the profiler's recording cycle: each
// SealInto hands the samples on and leaves the scratch as good as new, so
// the next epoch's state (including the array shape the codec writes)
// matches a fresh histogram's.
func TestSealIntoReusesScratch(t *testing.T) {
	scratch := NewHistogram()
	var first, second Histogram
	scratch.Add(3)
	scratch.Add(5000)
	scratch.Add(Infinite)
	scratch.SealInto(&first)
	scratch.Add(7)
	scratch.SealInto(&second)
	scratch.SealInto(&Histogram{})

	want1 := NewHistogram()
	want1.Add(3)
	want1.Add(5000)
	want1.Add(Infinite)
	want2 := NewHistogram()
	want2.Add(7)
	if !reflect.DeepEqual(first.State(), want1.State()) || !reflect.DeepEqual(second.State(), want2.State()) {
		t.Fatal("sealed epochs differ from freshly recorded histograms")
	}
	if !reflect.DeepEqual(scratch.State(), NewHistogram().State()) {
		t.Fatal("scratch not empty after SealInto")
	}
	if cap(scratch.linear) != linearCutoff || cap(scratch.log) != maxLogBuckets {
		t.Fatal("SealInto dropped the scratch arrays")
	}
	for _, c := range scratch.linear[:linearCutoff] {
		if c != 0 {
			t.Fatal("scratch linear array not zeroed")
		}
	}
	for _, c := range scratch.log[:maxLogBuckets] {
		if c != 0 {
			t.Fatal("scratch log array not zeroed")
		}
	}
}

// TestSealedReopens checks the mutators on a sealed histogram: Add, AddN
// and Merge re-open it and then behave as on the open histogram, Merge
// from a sealed source works, and a Tail taken before re-opening keeps
// answering for the samples it saw.
func TestSealedReopens(t *testing.T) {
	r := prng.New(9)
	open := NewHistogram()
	for i := 0; i < 500; i++ {
		open.Add(int64(r.Uint64n(1 << 14)))
	}
	sealed := sealedCopy(open)
	before := sealed.Tail()
	beforeAt := before.CountAbove(100)

	sealed.Add(42)
	open.Add(42)
	sealed.AddN(1<<20, 3)
	open.AddN(1<<20, 3)
	src := NewHistogram()
	src.Add(17)
	src.Add(Infinite)
	sealed.Merge(sealedCopy(src))
	open.Merge(src)
	if !reflect.DeepEqual(sealed.State(), open.State()) {
		t.Fatal("re-opened histogram differs from the open one")
	}
	if before.CountAbove(100) != beforeAt {
		t.Fatal("re-opening changed a Tail taken while sealed")
	}
}

// TestSealKeepsArrayShape checks that sealing, merging and restoring
// carry the dense arrays' shape the codec writes — an exact-count array in
// use without non-zero entries, and a short log array — through unchanged.
func TestSealKeepsArrayShape(t *testing.T) {
	st := HistogramState{HasLinear: true, LogLen: 50, Log: []Bin{{Index: 30, Count: 2}}, Count: 2, Max: 1 << 15}
	h := NewHistogram()
	if err := h.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.State(), st) {
		t.Fatalf("restored state %+v, want %+v", h.State(), st)
	}
	m := sealedCopy(h)
	if got := m.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("merged and sealed state %+v, want %+v", got, st)
	}
	for _, bad := range []HistogramState{
		{LogLen: MaxLogLen + 1},
		{Linear: []Bin{{1, 1}}},
		{HasLinear: true, Linear: []Bin{{2, 1}, {2, 1}}},
		{HasLinear: true, Linear: []Bin{{LinearLen, 1}}},
		{HasLinear: true, Linear: []Bin{{3, 0}}},
		{LogLen: 4, Log: []Bin{{4, 1}}},
	} {
		if err := NewHistogram().Restore(bad); err == nil {
			t.Fatalf("Restore accepted %+v", bad)
		}
	}
}

// sealedCopy returns a sealed histogram with h's samples.
func sealedCopy(h *Histogram) *Histogram {
	s := NewHistogram()
	s.Merge(h)
	s.Seal()
	return s
}
