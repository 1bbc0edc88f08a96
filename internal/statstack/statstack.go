// Package statstack implements StatStack (Eklöv & Hagersten, ISPASS 2010):
// statistical cache modeling that predicts the miss rate of a fully
// associative LRU cache from a reuse-distance distribution, which is cheap
// to collect, instead of a stack-distance distribution, which is not.
//
// Reuse distance of an access = number of accesses since the previous access
// to the same cache line. Stack distance = number of *distinct* lines
// accessed in that window; an access hits in an LRU cache of C lines iff its
// stack distance is below C. StatStack's key identity: among the r
// intervening accesses of a reuse window, exactly those whose own forward
// reuse distance reaches past the end of the window are the last occurrence
// of their line inside the window, hence
//
//	E[SD(r)] = Σ_{j=1}^{r-1} P(RD > j),
//
// computed over the same reuse-distance distribution. The multithreaded
// extension (Åhlman 2016) used by RPPM applies the identical machinery to
// two distributions per thread: a private one (per-thread access counter,
// with coherence write-invalidations recorded as infinite distances) for the
// private L1/L2, and a global one (access counter shared by all threads) for
// the shared LLC, capturing both negative interference (evictions by other
// threads) and positive interference (shared lines brought in by others).
//
// Cold misses appear as infinite reuse distances on a line's first access,
// so they flow through the same path.
//
// A Model depends on its histogram alone, never on a cache configuration,
// and is immutable once built: it keeps the SD(r) samples and the
// histogram's stats.Tail, not the histogram. Its sample points are a
// prefix of one process-wide immutable grid, which depends only on the
// sampling constants, then the model's own largest distance plus one, so
// a model stores the samples but not their points. For a sealed histogram
// (every histogram of a finished profile) that Tail is the histogram's
// own sparse storage, shared rather than copied, and charged to the
// histogram's size rather than the model's. profiler.Epoch.Models builds an epoch's three
// models once per profile, and every prediction of that profile, on any
// configuration and from any goroutine, queries them.
package statstack

import (
	"math"
	"sort"
	"unsafe"

	"rppm/internal/stats"
)

// Model predicts LRU miss rates from one reuse-distance histogram.
// It precomputes a piecewise-linear approximation of the expected
// stack-distance function SD(r) and keeps the histogram's immutable Tail
// for the miss-rate queries, so a model is safe for concurrent use and
// unaffected by later changes to its source histogram.
type Model struct {
	tail *stats.Tail

	// The reuse-distance sample points are the first len(sd)-1 points of
	// the shared grid, then maxR; sd[i] = E[SD(r(i))].
	sd   []float64
	maxR float64
}

// New builds a model from a reuse-distance histogram. The histogram is
// only read; a sealed one shares its Tail with the model, an open one is
// snapshotted and may change afterwards.
func New(h *stats.Histogram) *Model {
	if h == nil || h.Count() == 0 {
		return &Model{}
	}
	m := &Model{tail: h.Tail(), maxR: float64(h.Max()) + 1}
	m.sd = make([]float64, numPoints(m.maxR))

	// SD(r) = ∫_{1}^{r-1} P(RD > j) dj, accumulated by trapezoid between
	// sample points. ccdf(j) = FracAbove(j) is monotone non-increasing.
	prevR := 0.0
	prevC := 1.0 // P(RD > 0) = 1 for any access stream
	acc := 0.0
	for i := range m.sd {
		r := m.r(i)
		c := m.tail.FracAbove(int64(r) - 1) // P(RD > r-1) = P(RD >= r)
		acc += (r - prevR) * (c + prevC) / 2
		m.sd[i] = acc
		prevR, prevC = r, c
	}
	return m
}

// Sample points: every distance up to denseMax, then geometric steps from
// geomStart, stopping below the largest finite distance observed plus
// one (maxR), then maxR itself, so a model's points are strictly
// ascending. All but the last are a prefix of one grid, which the models
// share.
const (
	denseMax  = 64.0
	geomStart = 72.0
	geomStep  = 1.09
)

// grid is the shared sample grid, from 1 out past any maxR an int64
// distance can give. The geometric points are the floors of one running
// product, so a model's points are the same whichever maxR stops them.
var grid = func() []float64 {
	var g []float64
	for r := 1.0; r <= denseMax; r++ {
		g = append(g, r)
	}
	for r := geomStart; r < 0x1p64; r *= geomStep {
		g = append(g, math.Floor(r))
	}
	return g
}()

// numPoints returns the number of sample points of a model whose largest
// distance plus one is maxR: the grid points below it, then maxR.
// Because maxR is an integer, a point is below it exactly when the
// running product it is the floor of is.
func numPoints(maxR float64) int {
	return sort.SearchFloat64s(grid, maxR) + 1
}

// r returns the model's i-th sample point.
func (m *Model) r(i int) float64 {
	if i == len(m.sd)-1 {
		return m.maxR
	}
	return grid[i]
}

// SizeBytes returns the resident size of the model: the struct and its
// SD(r) samples. The sample points are the shared grid, and the tail
// snapshot is not charged either: for a sealed source histogram it is the
// histogram's own storage, charged by Histogram.SizeBytes.
func (m *Model) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*m)) + 8*int64(len(m.sd))
}

// SizeFor returns New(h).SizeBytes() without building the model, so a
// model built lazily can be charged at its eventual size up front.
func SizeFor(h *stats.Histogram) int64 {
	n := int64(unsafe.Sizeof(Model{}))
	if h == nil || h.Count() == 0 {
		return n
	}
	return n + 8*int64(numPoints(float64(h.Max())+1))
}

// StackDistance returns the expected stack distance for a reuse distance r.
// It is monotone non-decreasing in r and never exceeds r.
func (m *Model) StackDistance(r float64) float64 {
	if len(m.sd) == 0 || r <= 1 {
		return math.Min(math.Max(r, 0), 1)
	}
	// The first sample point at or above r: a grid point, else maxR.
	n := len(m.sd) - 1
	i := sort.SearchFloat64s(grid[:n], r)
	if i == n && r > m.maxR {
		return m.sd[n]
	}
	if m.r(i) == r || i == 0 {
		return math.Min(m.sd[i], r)
	}
	// Linear interpolation between sample points.
	r0, r1 := m.r(i-1), m.r(i)
	s0, s1 := m.sd[i-1], m.sd[i]
	v := s0 + (s1-s0)*(r-r0)/(r1-r0)
	return math.Min(v, r)
}

// CriticalDistance returns the smallest reuse distance whose expected stack
// distance reaches lines, or +Inf if no finite distance does: accesses with
// a reuse distance at or beyond it are predicted to miss a cache of that
// many lines. Exposed for the MLP model, which must classify individual
// profiled accesses as hits or misses.
func (m *Model) CriticalDistance(lines int) float64 {
	return m.criticalReuseDistance(lines)
}

// criticalReuseDistance returns the smallest reuse distance whose expected
// stack distance reaches lines, or +Inf if no finite distance does.
func (m *Model) criticalReuseDistance(lines int) float64 {
	if len(m.sd) == 0 {
		return math.Inf(1)
	}
	c := float64(lines)
	if m.sd[len(m.sd)-1] < c {
		return math.Inf(1)
	}
	// Binary search over sample points, then interpolate within the segment.
	i := sort.Search(len(m.sd), func(k int) bool { return m.sd[k] >= c })
	if i == 0 {
		return m.r(0)
	}
	r0, r1 := m.r(i-1), m.r(i)
	s0, s1 := m.sd[i-1], m.sd[i]
	if s1 == s0 {
		return r1
	}
	return r0 + (r1-r0)*(c-s0)/(s1-s0)
}

// MissRate predicts the miss rate of a fully associative LRU cache holding
// the given number of lines: the fraction of accesses whose reuse distance
// maps to a stack distance of at least lines, plus all infinite-distance
// accesses (cold misses and coherence invalidations).
func (m *Model) MissRate(lines int) float64 {
	if m.tail == nil {
		return 0
	}
	if lines <= 0 {
		return 1
	}
	rStar := m.criticalReuseDistance(lines)
	if math.IsInf(rStar, 1) {
		// Only cold/coherence misses.
		return float64(m.tail.InfiniteCount()) / float64(m.tail.Count())
	}
	// Misses are accesses with RD >= rStar (FracAbove counts Infinite).
	return m.tail.FracAbove(int64(rStar) - 1)
}

// ColdMissRate returns the fraction of accesses that are cold or coherence
// misses (infinite reuse distance) — a lower bound on any MissRate.
func (m *Model) ColdMissRate() float64 {
	if m.tail == nil {
		return 0
	}
	return float64(m.tail.InfiniteCount()) / float64(m.tail.Count())
}
