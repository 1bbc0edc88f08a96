// Package mlp implements the microarchitecture-independent memory-level
// parallelism model of Van den Steen & Eeckhout (CAL 2018) as used by RPPM:
// the D-cache stall component of the interval model divides the main-memory
// latency by the average number of overlapping long-latency loads.
//
// The profile supplies micro-trace windows with load positions, load-load
// dependence edges and per-access global reuse distances. At prediction
// time, a caller-supplied predicate decides which loads miss the LLC (it
// encapsulates the cache size via StatStack's critical reuse distance).
// Within each ROB-sized chunk, misses that are mutually independent can be
// outstanding simultaneously; chains of dependent misses (pointer chasing)
// serialize. MLP for a chunk is therefore
//
//	MLP = (number of misses) / (length of the longest dependent-miss chain),
//
// and the epoch's MLP is the miss-weighted mean over chunks, clamped to
// [1, MSHRs].
package mlp

import (
	"sync"

	"rppm/internal/profiler"
)

// chainPool recycles Walk's per-chunk chain-depth scratch. Walk runs
// once per epoch per distinct (ROB size, miss predicate), and every entry
// is written before it is read, so a recycled slice gives the same
// results.
var chainPool = sync.Pool{New: func() any { return new([]int) }}

// Compute returns the predicted MLP for the given windows under a ROB of
// robSize entries and mshrs outstanding-miss registers. isMiss decides
// whether a load with the given global reuse distance misses the LLC.
// The second return value is the number of LLC-missing loads observed in
// the windows (model inputs' sample size), useful for diagnostics.
func Compute(windows []profiler.Window, robSize, mshrs int, isMiss func(rd int64) bool) (float64, int) {
	weighted, misses := Walk(windows, robSize, isMiss)
	return Mean(weighted, misses, mshrs)
}

// Walk is the part of Compute that reads the windows: over ROB-sized
// chunks, the sum of each chunk's MLP weighted by its misses, and the
// number of misses. It does not depend on the MSHR count, so a caller may
// keep one result per distinct ROB size and predicate and finish each
// prediction with Mean.
func Walk(windows []profiler.Window, robSize int, isMiss func(rd int64) bool) (weighted float64, totalMisses int) {
	if robSize < 1 {
		robSize = 1
	}

	// chainDepth[i] = length of the longest chain of dependent LLC misses
	// ending at instruction i (0 when i does not depend on any miss and is
	// not one itself).
	cp := chainPool.Get().(*[]int)
	chainDepth := *cp
	for wi := range windows {
		w := &windows[wi]
		n := w.Len()
		for start := 0; start < n; start += robSize {
			end := start + robSize
			if end > n {
				end = n
			}
			chainDepth = chainDepth[:0]
			misses := 0
			maxChain := 0
			for i := start; i < end; i++ {
				inherited := 0
				if p := w.Dep1[i]; p >= 0 && int(p) >= start {
					if d := chainDepth[int(p)-start]; d > inherited {
						inherited = d
					}
				}
				if p := w.Dep2[i]; p >= 0 && int(p) >= start {
					if d := chainDepth[int(p)-start]; d > inherited {
						inherited = d
					}
				}
				d := inherited
				if w.IsLoad[i] && w.GlobalRD[i] >= 0 && isMiss(w.GlobalRD[i]) {
					misses++
					d = inherited + 1
				}
				chainDepth = append(chainDepth, d)
				if d > maxChain {
					maxChain = d
				}
			}
			if misses == 0 {
				continue
			}
			mlp := float64(misses) / float64(maxChain)
			weighted += mlp * float64(misses)
			totalMisses += misses
		}
	}
	*cp = chainDepth[:0]
	chainPool.Put(cp)
	return weighted, totalMisses
}

// Mean turns Walk's sums into the epoch's MLP, the miss-weighted mean
// clamped to [1, mshrs], and passes the miss count through.
func Mean(weighted float64, misses, mshrs int) (float64, int) {
	if misses == 0 {
		return 1, 0
	}
	mlp := weighted / float64(misses)
	if mlp < 1 {
		mlp = 1
	}
	if m := float64(mshrs); mlp > m {
		mlp = m
	}
	return mlp, misses
}
