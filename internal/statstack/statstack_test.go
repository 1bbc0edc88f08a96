package statstack

import (
	"math"
	"testing"
	"testing/quick"

	"rppm/internal/prng"
	"rppm/internal/stats"
)

// recordReuse feeds an address stream into a reuse-distance histogram the
// same way the profiler does: first access to a line is infinite.
func recordReuse(addrs []uint64) *stats.Histogram {
	h := stats.NewHistogram()
	last := map[uint64]int{}
	for i, a := range addrs {
		if p, ok := last[a]; ok {
			h.Add(int64(i - p - 1))
		} else {
			h.Add(stats.Infinite)
		}
		last[a] = i
	}
	return h
}

// lruMissRate simulates a fully associative LRU cache exactly.
func lruMissRate(addrs []uint64, lines int) float64 {
	type node struct{ prev, next uint64 }
	pos := map[uint64]int{} // address -> stack position proxy via timestamps
	_ = pos
	// Simple exact simulation with a slice-based LRU (test-only, O(n*C)).
	var stack []uint64
	misses := 0
	for _, a := range addrs {
		found := -1
		for i, x := range stack {
			if x == a {
				found = i
				break
			}
		}
		if found < 0 {
			misses++
			stack = append([]uint64{a}, stack...)
			if len(stack) > lines {
				stack = stack[:lines]
			}
		} else {
			copy(stack[1:found+1], stack[:found])
			stack[0] = a
		}
	}
	_ = node{}
	return float64(misses) / float64(len(addrs))
}

func cyclicStream(footprint, n int) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i%footprint) * 64
	}
	return addrs
}

func randomStream(footprint, n int, seed uint64) []uint64 {
	r := prng.New(seed)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = r.Uint64n(uint64(footprint)) * 64
	}
	return addrs
}

func TestCyclicExact(t *testing.T) {
	// A cyclic walk over F lines has RD = SD = F-1 for every non-cold
	// access: a cache with >= F lines gets only cold misses, a smaller
	// cache misses always.
	addrs := cyclicStream(100, 20000)
	m := New(recordReuse(addrs))
	if got := m.MissRate(128); got > 0.01 {
		t.Errorf("cyclic footprint 100, cache 128: miss rate %v, want ~cold only", got)
	}
	if got := m.MissRate(64); got < 0.95 {
		t.Errorf("cyclic footprint 100, cache 64: miss rate %v, want ~1", got)
	}
}

func TestRandomStreamAgainstExactLRU(t *testing.T) {
	addrs := randomStream(2000, 60000, 42)
	h := recordReuse(addrs)
	m := New(h)
	for _, lines := range []int{128, 512, 1024} {
		pred := m.MissRate(lines)
		actual := lruMissRate(addrs, lines)
		if math.Abs(pred-actual) > 0.08 {
			t.Errorf("cache %d lines: predicted %.3f, exact LRU %.3f", lines, pred, actual)
		}
	}
}

func TestMissRateMonotoneInCacheSize(t *testing.T) {
	addrs := randomStream(5000, 40000, 7)
	m := New(recordReuse(addrs))
	prev := 1.1
	for lines := 16; lines <= 1<<16; lines *= 2 {
		mr := m.MissRate(lines)
		if mr > prev+1e-9 {
			t.Fatalf("miss rate increased with cache size at %d lines: %v > %v", lines, mr, prev)
		}
		prev = mr
	}
}

func TestMissRateBounds(t *testing.T) {
	addrs := randomStream(300, 10000, 9)
	m := New(recordReuse(addrs))
	f := func(linesRaw uint16) bool {
		lines := int(linesRaw)%4096 + 1
		mr := m.MissRate(lines)
		return mr >= 0 && mr <= 1 && mr >= m.ColdMissRate()-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStackDistanceProperties(t *testing.T) {
	addrs := randomStream(1000, 30000, 11)
	m := New(recordReuse(addrs))
	prev := 0.0
	for r := 1.0; r < 5000; r *= 1.3 {
		sd := m.StackDistance(r)
		if sd > r+1e-9 {
			t.Fatalf("SD(%v) = %v exceeds reuse distance", r, sd)
		}
		if sd < prev-1e-9 {
			t.Fatalf("SD not monotone at r=%v: %v < %v", r, sd, prev)
		}
		prev = sd
	}
}

func TestColdMissesOnly(t *testing.T) {
	// Every address unique: all accesses cold, any cache misses 100%.
	addrs := make([]uint64, 5000)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	m := New(recordReuse(addrs))
	if got := m.MissRate(1 << 20); math.Abs(got-1) > 1e-9 {
		t.Fatalf("all-cold stream miss rate %v, want 1", got)
	}
	if got := m.ColdMissRate(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("cold miss rate %v, want 1", got)
	}
}

func TestSingleLineStream(t *testing.T) {
	// One line accessed repeatedly: only the first access misses.
	addrs := make([]uint64, 10000)
	m := New(recordReuse(addrs))
	want := 1.0 / 10000
	if got := m.MissRate(4); math.Abs(got-want) > 1e-6 {
		t.Fatalf("single-line miss rate %v, want %v", got, want)
	}
}

func TestEmptyModel(t *testing.T) {
	m := New(nil)
	if m.MissRate(100) != 0 || m.ColdMissRate() != 0 {
		t.Fatal("empty model should predict zero misses")
	}
	m2 := New(stats.NewHistogram())
	if m2.MissRate(100) != 0 {
		t.Fatal("model over empty histogram should predict zero misses")
	}
}

func TestZeroSizeCache(t *testing.T) {
	addrs := cyclicStream(10, 1000)
	m := New(recordReuse(addrs))
	if got := m.MissRate(0); got != 1 {
		t.Fatalf("zero-size cache miss rate %v, want 1", got)
	}
}

func TestHotColdMixture(t *testing.T) {
	// 90% of accesses to 32 hot lines, 10% to 100k cold-ish lines. A cache
	// of 64 lines should capture roughly the hot fraction.
	r := prng.New(13)
	addrs := make([]uint64, 80000)
	for i := range addrs {
		if r.Bool(0.9) {
			addrs[i] = r.Uint64n(32) * 64
		} else {
			addrs[i] = (1000 + r.Uint64n(100000)) * 64
		}
	}
	m := New(recordReuse(addrs))
	mr := m.MissRate(64)
	if mr < 0.05 || mr > 0.2 {
		t.Fatalf("hot/cold mixture, 64-line cache: miss rate %v, want ~0.1", mr)
	}
	// A huge cache should be left with cold misses only (the 10% cold
	// accesses rarely repeat, so nearly all of them are first touches).
	mrBig := m.MissRate(1 << 18)
	if mrBig > m.ColdMissRate()+0.01 {
		t.Fatalf("huge cache miss rate %v, want ~cold rate %v", mrBig, m.ColdMissRate())
	}
}

// TestSampleGridAscending builds models from random histograms, many with
// a largest distance below the dense range and many with Infinite
// samples: the sample points must be strictly ascending and the
// accumulated stack distances non-decreasing, or the trapezoid adds a
// negative segment.
func TestSampleGridAscending(t *testing.T) {
	r := prng.New(21)
	for i := 0; i < 500; i++ {
		h := stats.NewHistogram()
		maxV := []uint64{2, 11, 63, 64, 65, 70, 500, 1 << 14, 1 << 22}[i%9]
		for n := 1 + r.Uint64n(300); n > 0; n-- {
			h.Add(int64(r.Uint64n(maxV)))
		}
		h.AddN(stats.Infinite, r.Uint64n(40))
		m := New(h)
		if len(m.sd) != numPoints(float64(h.Max())+1) {
			t.Fatalf("max %d: %d sample points, numPoints says %d", h.Max(), len(m.sd), numPoints(float64(h.Max())+1))
		}
		for k := 1; k < len(m.sd); k++ {
			if m.r(k) <= m.r(k-1) {
				t.Fatalf("max %d: sample points not ascending at %d: %v after %v", h.Max(), k, m.r(k), m.r(k-1))
			}
			if m.sd[k] < m.sd[k-1] {
				t.Fatalf("max %d: stack distance decreases at r=%v: %v after %v", h.Max(), m.r(k), m.sd[k], m.sd[k-1])
			}
		}
		if got, want := m.SizeBytes(), SizeFor(h); got != want {
			t.Fatalf("max %d: model is %d B, SizeFor says %d", h.Max(), got, want)
		}
	}
}

// ownGrid is the sample grid New built per model before models shared
// one: the reference the shared prefix must reproduce.
func ownGrid(maxR float64) []float64 {
	var rs []float64
	for r := 1.0; r <= denseMax && r < maxR; r++ {
		rs = append(rs, r)
	}
	for r := geomStart; r < maxR; r *= geomStep {
		rs = append(rs, math.Floor(r))
	}
	return append(rs, maxR)
}

// TestSharedGridPrefix checks that a model's sample points, the shared
// grid's prefix plus maxR, are bit for bit the grid a model built for
// itself, for every largest distance in [0, 4096] and around the powers
// of two up to 2^40, and that a model built from a histogram with that
// largest distance uses them.
func TestSharedGridPrefix(t *testing.T) {
	maxes := []int64{}
	for v := int64(0); v <= 4096; v++ {
		maxes = append(maxes, v)
	}
	for p := 13; p <= 40; p++ {
		maxes = append(maxes, 1<<p-1, 1<<p, 1<<p+1)
	}
	for _, max := range maxes {
		maxR := float64(max) + 1
		want := ownGrid(maxR)
		m := &Model{sd: make([]float64, numPoints(maxR)), maxR: maxR}
		if len(m.sd) != len(want) {
			t.Fatalf("max %d: %d points, own grid has %d", max, len(m.sd), len(want))
		}
		for k, w := range want {
			if math.Float64bits(m.r(k)) != math.Float64bits(w) {
				t.Fatalf("max %d: point %d is %v, own grid has %v", max, k, m.r(k), w)
			}
		}
	}
	for _, max := range []int64{0, 1, 63, 64, 65, 71, 72, 73, 4095, 4096, 1 << 20} {
		h := stats.NewHistogram()
		h.Add(max)
		if m := New(h); m.maxR != float64(h.Max())+1 || len(m.sd) != len(ownGrid(m.maxR)) {
			t.Fatalf("max %d: model has maxR %v and %d points, want %v and %d",
				max, m.maxR, len(m.sd), float64(h.Max())+1, len(ownGrid(float64(h.Max())+1)))
		}
	}
}

// TestSmallMaxStackDistance is the case a grid running past the largest
// distance got wrong: values 1..10 and 20 Infinite samples.
func TestSmallMaxStackDistance(t *testing.T) {
	h := stats.NewHistogram()
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	h.AddN(stats.Infinite, 20)
	m := New(h)
	if sd40, sd70 := m.StackDistance(40), m.StackDistance(70); sd70 < sd40 {
		t.Fatalf("StackDistance(70) = %v < StackDistance(40) = %v", sd70, sd40)
	}
	crit := m.CriticalDistance(8)
	if math.IsInf(crit, 1) || crit > float64(h.Max())+1 {
		t.Fatalf("CriticalDistance(8) = %v, want a distance within the grid", crit)
	}
	if sd := m.StackDistance(crit); math.Abs(sd-8) > 1e-9 {
		t.Fatalf("StackDistance(CriticalDistance(8)) = %v, want 8", sd)
	}
}

func BenchmarkModelBuild(b *testing.B) {
	addrs := randomStream(100000, 200000, 1)
	h := recordReuse(addrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(h)
	}
}

func BenchmarkMissRate(b *testing.B) {
	addrs := randomStream(100000, 200000, 1)
	m := New(recordReuse(addrs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MissRate(8192)
	}
}
