package stats

import (
	"sort"
	"unsafe"
)

// Tail is an immutable snapshot of a histogram's upper tail: everything
// CountAbove needs, without the 32 KB exact-count array. The StatStack
// model keeps one per reuse-distance histogram and probes it at hundreds
// of points per build and once per miss-rate query.
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
}

// tailBucket is one non-empty log bucket covering [lo, hi).
type tailBucket struct {
	lo, hi int64
	c      uint64
}

// Tail snapshots h's tail. The snapshot shares no storage with h, which
// may be mutated or released afterwards.
func (h *Histogram) Tail() *Tail {
	t := &Tail{
		infinite: h.infinite,
		count:    h.count,
		linVal:   make([]uint16, 0, h.nzLinear),
		logs:     make([]tailBucket, 0, h.nzLog),
	}
	for v, c := range h.linear {
		if c != 0 {
			t.linVal = append(t.linVal, uint16(v))
		}
	}
	t.linSuf = make([]uint64, len(t.linVal)+1)
	for i := len(t.linVal) - 1; i >= 0; i-- {
		t.linSuf[i] = t.linSuf[i+1] + h.linear[t.linVal[i]]
	}
	for b, c := range h.log {
		if c != 0 {
			lo, hi := logBucketBounds(b)
			t.logs = append(t.logs, tailBucket{lo, hi, c})
		}
	}
	return t
}

// TailSizeBytes returns what h.Tail().SizeBytes() would, without building
// the snapshot, so owners can charge a tail before it exists.
func (h *Histogram) TailSizeBytes() int64 {
	return tailSize(int(h.nzLinear), int(h.nzLog))
}

// SizeBytes returns the resident size of the snapshot.
func (t *Tail) SizeBytes() int64 { return tailSize(len(t.linVal), len(t.logs)) }

func tailSize(nLin, nLog int) int64 {
	return int64(unsafe.Sizeof(Tail{})) +
		int64(nLin)*int64(unsafe.Sizeof(uint16(0))) +
		int64(nLin+1)*int64(unsafe.Sizeof(uint64(0))) +
		int64(nLog)*int64(unsafe.Sizeof(tailBucket{}))
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
	i := sort.Search(len(t.logs), func(i int) bool { return t.logs[i].hi-1 > v })
	for _, b := range t.logs[i:] {
		if b.lo > v {
			total += float64(b.c)
		} else {
			frac := float64(b.hi-1-v) / float64(b.hi-b.lo)
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
