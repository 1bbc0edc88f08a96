// Package stats provides the compact statistical containers shared by the
// profiler and the analytical models: log-bucketed histograms for
// reuse-distance and dependence-distance distributions, and small summary
// helpers.
//
// Reuse distances span ten orders of magnitude, so exact per-value counters
// are impractical. Following StatStack practice we keep exact counts for
// small distances and logarithmic buckets beyond a linear cutoff; within a
// log bucket the distribution is treated as uniform when interpolating.
//
// A Histogram records into dense arrays while open and is sealed into a
// sparse, immutable Tail once finished: a retained profile holds thousands
// of histograms with about ten non-zero exact counts each, against 4,096
// dense slots. Queries are bit-identical in both forms.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"unsafe"
)

// linearCutoff is the largest value tracked with an exact counter. Values
// above it fall into log2-spaced buckets (two sub-buckets per octave).
const linearCutoff = 4096

// Infinite is the sentinel distance used for cold misses and coherence
// invalidations: a reuse distance larger than any cache will ever hold.
const Infinite = math.MaxInt64

// Histogram is a distribution over non-negative int64 values with exact
// resolution up to linearCutoff and logarithmic resolution beyond. It also
// tracks a separate count of Infinite samples.
//
// A histogram is open or sealed. An open histogram records samples into
// dense count arrays: 32 KB of exact counts once a sample below the cutoff
// arrives, plus the log buckets. Seal (or SealInto) freezes it into a
// Tail, which keeps only the non-zero counts; a reuse-distance histogram
// holds about ten of them, so a retained profile keeps its histograms
// sealed and records into reused open scratch (see SealInto). Every query
// answers bit-identically in both forms.
type Histogram struct {
	// Open form. len(linear) is linearCutoff once a finite sample below
	// the cutoff arrives and 0 before; len(log) is the log-array length.
	// Capacity past len is all zeros, so a reset histogram regrows in
	// place.
	linear []uint64 // exact counts for values in [0, linearCutoff)
	log    []uint64 // log-bucket counts for values >= linearCutoff
	// nz marks the non-zero entries of linear, one bit each, so sealing
	// and resetting visit them in ascending order without scanning the
	// whole array; allocated with linear.
	nz       *[linearCutoff / 64]uint64
	nzLinear int32 // non-zero entries of linear
	nzLog    int32 // non-zero entries of log

	// tail is the sealed form; nil while the histogram is open.
	tail *Tail

	infinite uint64  // samples recorded as Infinite
	count    uint64  // total samples, including infinite
	sum      float64 // sum of finite samples
	max      int64   // largest finite sample
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// logSubBuckets is the number of sub-buckets logBucket spreads each value
// octave over; maxLogBuckets bounds its index space (63 octaves for
// positive int64 values), sizing the one-shot log-array growth in AddN.
const (
	logSubBuckets = 2
	maxLogBuckets = logSubBuckets * 64
)

// logBucket maps a value >= linearCutoff to a bucket index. Each octave is
// split in two for better resolution: bucket = 2*floor(log2 v) + half.
func logBucket(v int64) int {
	lg := 63 - bits.LeadingZeros64(uint64(v))
	half := 0
	if uint64(v)>>(uint(lg)-1)&1 == 1 { // second half of the octave
		half = 1
	}
	return 2*lg + half
}

// logBucketBounds returns the inclusive lower and exclusive upper value
// bounds of a log bucket index.
func logBucketBounds(b int) (lo, hi int64) {
	lg := b / 2
	half := b % 2
	lo = int64(1) << uint(lg)
	mid := lo + lo/2
	hi = int64(1) << uint(lg+1)
	if half == 0 {
		return lo, mid
	}
	return mid, hi
}

// ensureLinear brings the exact-count array into use, reusing spare
// capacity left by a reset.
func (h *Histogram) ensureLinear() {
	switch {
	case len(h.linear) != 0:
	case cap(h.linear) >= linearCutoff:
		h.linear = h.linear[:linearCutoff]
	default:
		h.linear = make([]uint64, linearCutoff)
		h.nz = new([linearCutoff / 64]uint64)
	}
}

// growLog extends the log array to n entries, reusing spare capacity.
func (h *Histogram) growLog(n int) {
	switch {
	case n <= len(h.log):
	case n <= cap(h.log):
		h.log = h.log[:n]
	default:
		grown := make([]uint64, n)
		copy(grown, h.log)
		h.log = grown
	}
}

func (h *Histogram) addLinear(v int, n uint64) {
	if h.linear[v] == 0 {
		h.nzLinear++
		h.nz[v/64] |= 1 << (v % 64)
	}
	h.linear[v] += n
}

// eachLinear calls fn for every non-zero exact count, in ascending order.
func (h *Histogram) eachLinear(fn func(v int, c uint64)) {
	if h.nz == nil {
		return
	}
	for w, word := range h.nz {
		for word != 0 {
			v := w*64 + bits.TrailingZeros64(word)
			fn(v, h.linear[v])
			word &= word - 1
		}
	}
}

func (h *Histogram) addLog(b int, n uint64) {
	if h.log[b] == 0 {
		h.nzLog++
	}
	h.log[b] += n
}

// Add records one occurrence of value v. Negative values are clamped to 0.
func (h *Histogram) Add(v int64) {
	// Fast path for the profiler's per-access recording: small finite
	// distance into an exact-count array in use. State updates match
	// AddN(v, 1) exactly (float64(v)*float64(1) == float64(v)).
	if uint64(v) < linearCutoff && len(h.linear) != 0 {
		h.count++
		h.sum += float64(v)
		if v > h.max {
			h.max = v
		}
		c := &h.linear[v]
		if *c == 0 {
			h.nzLinear++
			h.nz[v/64] |= 1 << (v % 64)
		}
		*c++
		return
	}
	h.AddN(v, 1)
}

// AddN records n occurrences of value v. On a sealed histogram it re-opens
// it first (see Seal).
func (h *Histogram) AddN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if h.tail != nil {
		h.reopen()
	}
	h.count += n
	if v == Infinite {
		h.infinite += n
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum += float64(v) * float64(n)
	if v > h.max {
		h.max = v
	}
	if v < linearCutoff {
		h.ensureLinear()
		h.addLinear(int(v), n)
		return
	}
	b := logBucket(v)
	if b >= len(h.log) {
		// One growth for the histogram's lifetime: the bucket index space
		// is bounded by maxLogBuckets, so allocate it all at once instead
		// of re-growing on each new maximum. (The max with b+1 is a guard
		// in case logBucket ever gains resolution.)
		h.growLog(max(maxLogBuckets, b+1))
	}
	h.addLog(b, n)
}

// Merge adds all samples of other, open or sealed, into h. On a sealed
// histogram it re-opens h first (see Seal).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if h.tail != nil {
		h.reopen()
	}
	h.count += other.count
	h.infinite += other.infinite
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	h.addTail(other.Tail())
}

// addTail adds a sealed form's counts to h's dense arrays, growing them to
// the shape the sealed histogram had.
func (h *Histogram) addTail(t *Tail) {
	if t.hasLinear {
		h.ensureLinear()
		for i, v := range t.linVal {
			h.addLinear(int(v), t.linSuf[i]-t.linSuf[i+1])
		}
	}
	h.growLog(int(t.logLen))
	for _, b := range t.logs {
		h.addLog(int(b.b), b.c)
	}
}

// Seal converts h to its sealed form: a Tail holding only the non-zero
// counts, which Tail then returns without copying and every reader
// shares. The dense arrays are dropped; sealing a sealed histogram does
// nothing. Add, AddN and Merge re-open a sealed histogram: they rebuild
// its dense arrays from the sealed counts and leave the shared Tail as it
// was, so models built from it keep describing the samples they saw.
func (h *Histogram) Seal() { *h = h.sealed() }

// SealInto stores h's samples in dst in sealed form and empties h, keeping
// its dense arrays for the next round of samples: the profiler records
// every epoch of a thread into one set of scratch histograms this way. dst
// shares no storage with h afterwards.
func (h *Histogram) SealInto(dst *Histogram) {
	*dst = h.sealed()
	h.reset()
}

func (h *Histogram) sealed() Histogram {
	return Histogram{tail: h.Tail(), infinite: h.infinite, count: h.count, sum: h.sum, max: h.max}
}

// reopen turns a sealed histogram back into an open one.
func (h *Histogram) reopen() {
	t := h.tail
	h.tail = nil
	h.addTail(t)
}

// reset empties h, zeroing only the entries in use so that its arrays'
// spare capacity stays all zeros.
func (h *Histogram) reset() {
	if h.nzLinear != 0 {
		h.eachLinear(func(v int, _ uint64) { h.linear[v] = 0 })
		*h.nz = [linearCutoff / 64]uint64{}
	}
	clear(h.log)
	*h = Histogram{linear: h.linear[:0], log: h.log[:0], nz: h.nz}
}

// SizeBytes returns the resident size of the histogram, for memory-budget
// accounting of retained profiles: the struct plus, when sealed, its Tail
// (which StatStack models share and do not charge again), or, when open,
// the dense arrays' capacity.
func (h *Histogram) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*h))
	if h.tail != nil {
		return n + h.tail.SizeBytes()
	}
	n += 8 * int64(cap(h.linear)+cap(h.log))
	if h.nz != nil {
		n += int64(unsafe.Sizeof(*h.nz))
	}
	return n
}

// Bin is one non-zero entry of a histogram's exact-count or log-bucket
// array.
type Bin struct {
	Index int
	Count uint64
}

// HistogramState is the exact internal state of a Histogram in sparse
// form, exposed for the profile persistence codec (internal/profilefmt).
// Restoring a state yields a sealed histogram whose every query —
// CountAbove, Mean, Quantile — is bit-identical to the original: the
// counts are carried verbatim and the floating-point sum as raw bits,
// never re-accumulated.
type HistogramState struct {
	// HasLinear reports whether the exact-count array was in use; Linear
	// lists its non-zero entries by strictly ascending Index < LinearLen.
	HasLinear bool
	Linear    []Bin
	// LogLen is the length of the log-bucket array, at most MaxLogLen; Log
	// lists its non-zero entries by strictly ascending Index < LogLen.
	LogLen int
	Log    []Bin

	Infinite uint64
	Count    uint64
	SumBits  uint64 // math.Float64bits of the finite-sample sum
	Max      int64
}

// LinearLen is the length of the exact-count array.
const LinearLen = linearCutoff

// MaxLogLen bounds HistogramState.LogLen.
const MaxLogLen = maxLogBuckets

// State returns the histogram's internal state. The slices are fresh.
func (h *Histogram) State() HistogramState {
	t := h.Tail()
	st := HistogramState{
		HasLinear: t.hasLinear,
		LogLen:    int(t.logLen),
		Infinite:  h.infinite,
		Count:     h.count,
		SumBits:   math.Float64bits(h.sum),
		Max:       h.max,
	}
	if len(t.linVal) > 0 {
		st.Linear = make([]Bin, len(t.linVal))
		for i, v := range t.linVal {
			st.Linear[i] = Bin{int(v), t.linSuf[i] - t.linSuf[i+1]}
		}
	}
	if len(t.logs) > 0 {
		st.Log = make([]Bin, len(t.logs))
		for i, b := range t.logs {
			st.Log[i] = Bin{int(b.b), b.c}
		}
	}
	return st
}

// Restore overwrites h with the given state, in sealed form. It checks the
// shape State guarantees (entries in range, strictly ascending, non-zero)
// and keeps no reference to the state's slices.
func (h *Histogram) Restore(st HistogramState) error {
	if st.LogLen < 0 || st.LogLen > maxLogBuckets {
		return fmt.Errorf("stats: restore: %d log buckets exceeds limit %d", st.LogLen, maxLogBuckets)
	}
	if !st.HasLinear && len(st.Linear) > 0 {
		return fmt.Errorf("stats: restore: %d linear entries without a linear array", len(st.Linear))
	}
	if err := checkBins(st.Linear, linearCutoff); err != nil {
		return fmt.Errorf("stats: restore: linear %w", err)
	}
	if err := checkBins(st.Log, st.LogLen); err != nil {
		return fmt.Errorf("stats: restore: log %w", err)
	}
	t := &Tail{
		infinite:  st.Infinite,
		count:     st.Count,
		hasLinear: st.HasLinear,
		logLen:    int32(st.LogLen),
		linVal:    make([]uint16, len(st.Linear)),
		linSuf:    suffixSlice(len(st.Linear)),
		logs:      make([]tailBucket, len(st.Log)),
	}
	for i := len(st.Linear) - 1; i >= 0; i-- {
		t.linVal[i] = uint16(st.Linear[i].Index)
		t.linSuf[i] = t.linSuf[i+1] + st.Linear[i].Count
	}
	for i, b := range st.Log {
		t.logs[i] = tailBucket{b: int32(b.Index), c: b.Count}
	}
	*h = Histogram{tail: t, infinite: st.Infinite, count: st.Count, sum: math.Float64frombits(st.SumBits), max: st.Max}
	return nil
}

// checkBins checks that bins are non-zero with strictly ascending indices
// in [0, limit).
func checkBins(bins []Bin, limit int) error {
	prev := -1
	for _, b := range bins {
		if b.Index <= prev || b.Index >= limit {
			return fmt.Errorf("entry index %d out of order or range", b.Index)
		}
		if b.Count == 0 {
			return fmt.Errorf("entry %d has a zero count", b.Index)
		}
		prev = b.Index
	}
	return nil
}

// Count returns the total number of samples, including Infinite ones.
func (h *Histogram) Count() uint64 { return h.count }

// InfiniteCount returns the number of Infinite samples.
func (h *Histogram) InfiniteCount() uint64 { return h.infinite }

// Mean returns the mean of the finite samples (0 if none).
func (h *Histogram) Mean() float64 {
	finite := h.count - h.infinite
	if finite == 0 {
		return 0
	}
	return h.sum / float64(finite)
}

// Max returns the largest finite sample recorded (0 if none).
func (h *Histogram) Max() int64 { return h.max }

// CountAbove returns the number of samples with value strictly greater than
// v; see Tail.CountAbove. On an open histogram each call snapshots the
// tail, so callers probing many values should take one Tail and query it.
func (h *Histogram) CountAbove(v int64) float64 { return h.Tail().CountAbove(v) }

// Quantile returns an approximate q-quantile (q in [0,1]) of the finite
// samples: the smallest exact value, or log-bucket midpoint, at which the
// running count in ascending order reaches q of them. Returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	finite := h.count - h.infinite
	if finite == 0 {
		return 0
	}
	t := h.Tail()
	target := q * float64(finite)
	if t.hasLinear && target <= 0 {
		return 0 // reached at value 0, whatever its count
	}
	acc := 0.0
	for i, v := range t.linVal {
		acc += float64(t.linSuf[i] - t.linSuf[i+1])
		if acc >= target {
			return int64(v)
		}
	}
	for _, b := range t.logs {
		acc += float64(b.c)
		if acc >= target {
			lo, hi := logBucketBounds(int(b.b))
			return (lo + hi) / 2
		}
	}
	return h.max
}

// Buckets calls fn for every non-empty bucket with a representative value
// (exact for linear buckets, midpoint for log buckets) and its count.
// Infinite samples are reported last with value Infinite.
func (h *Histogram) Buckets(fn func(value int64, count uint64)) {
	t := h.Tail()
	for i, v := range t.linVal {
		fn(int64(v), t.linSuf[i]-t.linSuf[i+1])
	}
	for _, b := range t.logs {
		lo, hi := logBucketBounds(int(b.b))
		fn((lo+hi)/2, b.c)
	}
	if h.infinite > 0 {
		fn(Infinite, h.infinite)
	}
}

// String renders a short human-readable summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d inf=%d mean=%.1f max=%d}", h.count, h.infinite, h.Mean(), h.max)
}

// Summary holds basic descriptive statistics of a float64 sample.
type Summary struct {
	N              int
	Mean, Min, Max float64
	Stddev         float64
}

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	s.Stddev = math.Sqrt(varsum / float64(len(xs)))
	return s
}

// Median returns the median of xs (0 for empty input). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// MeanAbs returns the mean of |xs[i]|.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Abs(x)
	}
	return sum / float64(len(xs))
}

// MaxAbs returns the maximum of |xs[i]|.
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
