package stats

import (
	"sort"
	"unsafe"
)

// Tail is the sealed, sparse form of a histogram: everything CountAbove,
// Quantile and the profile codec need, without the 32 KB exact-count
// array. A sealed Histogram stores one and shares it with every reader —
// the StatStack model of the histogram probes it at hundreds of points per
// build and once per miss-rate query — so a Tail is immutable.
//
// CountAbove on a Tail is bit-identical to a per-element float
// accumulation over the source histogram. Every count and every partial
// sum of the linear range is an integer far below 2^53, so the exact
// integer suffix sum stands in for that accumulation without rounding; the
// log buckets are added one by one in ascending order, as that
// accumulation adds them, so whatever rounding the straddling bucket's
// fraction introduces repeats exactly.
type Tail struct {
	infinite uint64
	count    uint64

	linVal []uint16 // ascending values < linearCutoff with a non-zero count
	linSuf []uint64 // linSuf[i] = Σ counts of linVal[i:]; one trailing 0

	logs []tailBucket // non-zero log buckets, ascending

	// The shape of the source's dense arrays, which the profile codec
	// writes: whether the exact-count array was in use, and the length of
	// the log-bucket array.
	hasLinear bool
	logLen    int32
}

// tailBucket is one non-empty log bucket: its index and count.
type tailBucket struct {
	b int32
	c uint64
}

// noSuffix is the suffix-sum array of a tail without linear entries,
// shared rather than allocated per histogram.
var noSuffix = []uint64{0}

// suffixSlice returns a zeroed suffix-sum array for n linear entries.
func suffixSlice(n int) []uint64 {
	if n == 0 {
		return noSuffix
	}
	return make([]uint64, n+1)
}

// Tail returns h's sealed form. For a sealed histogram that is its own
// storage, shared and immutable; for an open one it is a fresh snapshot
// sharing no storage with h, which may be mutated or released afterwards.
func (h *Histogram) Tail() *Tail {
	if h.tail != nil {
		return h.tail
	}
	t := &Tail{
		infinite:  h.infinite,
		count:     h.count,
		hasLinear: len(h.linear) != 0,
		logLen:    int32(len(h.log)),
		linVal:    make([]uint16, 0, h.nzLinear),
		linSuf:    suffixSlice(int(h.nzLinear)),
		logs:      make([]tailBucket, 0, h.nzLog),
	}
	h.eachLinear(func(v int, c uint64) {
		t.linVal = append(t.linVal, uint16(v))
		t.linSuf[len(t.linVal)-1] = c
	})
	for i := len(t.linVal) - 1; i >= 0; i-- {
		t.linSuf[i] += t.linSuf[i+1]
	}
	for b, c := range h.log {
		if c != 0 {
			t.logs = append(t.logs, tailBucket{int32(b), c})
		}
	}
	return t
}

// SizeBytes returns the resident size of the snapshot.
func (t *Tail) SizeBytes() int64 {
	nLin, nLog := int64(len(t.linVal)), int64(len(t.logs))
	return int64(unsafe.Sizeof(*t)) +
		nLin*int64(unsafe.Sizeof(uint16(0))) +
		(nLin+1)*int64(unsafe.Sizeof(uint64(0))) +
		nLog*int64(unsafe.Sizeof(tailBucket{}))
}

// Count returns the total number of samples, including Infinite ones.
func (t *Tail) Count() uint64 { return t.count }

// InfiniteCount returns the number of Infinite samples.
func (t *Tail) InfiniteCount() uint64 { return t.infinite }

// CountAbove returns the number of samples with value strictly greater than
// v. Infinite samples always count. The log bucket straddling v contributes
// a uniform-interpolation fraction.
func (t *Tail) CountAbove(v int64) float64 {
	if t.count == 0 {
		return 0
	}
	total := float64(t.infinite)
	if v < linearCutoff {
		i := sort.Search(len(t.linVal), func(i int) bool { return int64(t.linVal[i]) > v })
		total += float64(t.linSuf[i])
	}
	// Buckets wholly at or below v contribute nothing; they form a prefix.
	i := sort.Search(len(t.logs), func(i int) bool {
		_, hi := logBucketBounds(int(t.logs[i].b))
		return hi-1 > v
	})
	for _, b := range t.logs[i:] {
		lo, hi := logBucketBounds(int(b.b))
		if lo > v {
			total += float64(b.c)
		} else {
			frac := float64(hi-1-v) / float64(hi-lo)
			total += float64(b.c) * frac
		}
	}
	return total
}

// FracAbove returns the fraction of all samples strictly greater than v.
func (t *Tail) FracAbove(v int64) float64 {
	if t.count == 0 {
		return 0
	}
	return t.CountAbove(v) / float64(t.count)
}
