// Package ilp computes the effective dispatch rate (Deff) and the branch
// resolution time (cres) of the interval model from profiled micro-traces.
//
// Following Van den Steen et al. (TC 2016), the base component of the CPI
// stack is N/Deff where Deff is limited by three mechanisms:
//
//  1. the front-end dispatch width D;
//  2. the ILP exposed by the application within a ROB-sized window: a
//     window of W instructions whose latency-weighted critical path is L
//     cycles cannot sustain more than W/L instructions per cycle;
//  3. functional-unit contention: a class making up fraction f of the mix
//     with p issue ports per cycle limits throughput to p/f.
//
// The branch resolution time cres — the time between a mispredicted
// branch's dispatch and its execution — is the latency-weighted depth of
// the branch's dependence chain inside the window, divided by the rate at
// which the chain's producers issue.
package ilp

import (
	"sync"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/trace"
)

// Result carries the micro-trace-derived model inputs for one epoch.
type Result struct {
	// Deff is the effective dispatch rate in instructions per cycle.
	Deff float64
	// Cres is the mean branch resolution time in cycles.
	Cres float64
}

// Bound is the micro-trace part of Analyze, the walk over ROB-sized
// chunks of the windows. It reads only the ROB size and the L1D hit
// latency of a configuration, so a caller predicting many configurations
// may keep one Bound per distinct pair of those and finish each
// prediction with Result.
type Bound struct {
	// IPC is the harmonic-mean window bound W/L, or 0 when no chunk was
	// long enough to estimate it (a bound, when present, is positive).
	IPC float64
	// Cres is the mean branch resolution depth, or 0 when the windows
	// hold no branch (a branch's depth is at least its own latency).
	Cres float64
}

// Analyze computes Deff and Cres for a set of micro-trace windows under a
// configuration. mix is the epoch's instruction-class distribution used for
// functional-unit contention.
func Analyze(windows []profiler.Window, mix [trace.NumClasses]uint64, cfg *arch.Config) Result {
	return Walk(windows, cfg.ROBSize, cfg.L1D.HitLatency).Result(mix, cfg)
}

// Result combines the walk's bound with the dispatch width and the
// functional-unit limit of mix under cfg.
func (b Bound) Result(mix [trace.NumClasses]uint64, cfg *arch.Config) Result {
	res := Result{
		Deff: float64(cfg.DispatchWidth),
		Cres: float64(cfg.L1D.HitLatency), // floor when no branches observed
	}
	if b.IPC > 0 && b.IPC < res.Deff {
		res.Deff = b.IPC
	}
	if b.Cres > 0 {
		res.Cres = b.Cres
	}

	if fu := fuLimit(mix, cfg); fu < res.Deff {
		res.Deff = fu
	}
	if res.Deff < 0.1 {
		res.Deff = 0.1
	}
	return res
}

// fuLimit returns the functional-unit throughput bound for the mix.
func fuLimit(mix [trace.NumClasses]uint64, cfg *arch.Config) float64 {
	var total uint64
	for _, n := range mix {
		total += n
	}
	if total == 0 {
		return float64(cfg.DispatchWidth)
	}
	ports := func(c trace.Class) float64 {
		switch c {
		case trace.IntALU:
			return float64(cfg.IntALUPorts)
		case trace.IntMul, trace.IntDiv:
			return float64(cfg.IntMulPorts)
		case trace.FPAdd, trace.FPMul, trace.FPDiv:
			return float64(cfg.FPPorts)
		case trace.Load:
			return float64(cfg.LoadPorts)
		case trace.Store:
			return float64(cfg.StorePorts)
		case trace.Branch:
			return float64(cfg.BranchUnits)
		}
		return 1
	}
	limit := float64(cfg.DispatchWidth)
	for c := 0; c < trace.NumClasses; c++ {
		frac := float64(mix[c]) / float64(total)
		if frac <= 0 {
			continue
		}
		// Divides and multiplies are pipelined but not fully; approximate
		// occupancy with one op per port per cycle (issue bandwidth bound).
		if b := ports(trace.Class(c)) / frac; b < limit {
			limit = b
		}
	}
	return limit
}

// classLatency returns the execution latency used for critical-path
// weighting. Loads are weighted with the L1 hit latency: the base component
// assumes cache hits, misses are charged to the memory components.
func classLatency(c trace.Class, loadLat float64) float64 {
	if c == trace.Load {
		return loadLat
	}
	return float64(c.ExecLatency())
}

// depthPool recycles Walk's per-chunk dependence-depth scratch. It runs
// once per epoch per distinct (ROB size, load latency), and every entry
// is written before it is read, so a recycled slice gives the same
// results.
var depthPool = sync.Pool{New: func() any { return new([]float64) }}

// Walk partitions the micro-traces into chunks of rob instructions and
// returns the harmonic-mean IPC bound W/L plus the mean branch
// resolution depth, weighting loads with loadLatency (see classLatency).
func Walk(windows []profiler.Window, rob, loadLatency int) Bound {
	loadLat := float64(loadLatency)
	var cycleSum, instrSum float64
	var branchDepthSum float64
	var branchCount float64

	dp := depthPool.Get().(*[]float64)
	depth := *dp
	for wi := range windows {
		w := &windows[wi]
		n := w.Len()
		for start := 0; start < n; start += rob {
			end := start + rob
			if end > n {
				end = n
			}
			depth = depth[:0]
			chunkCrit := 0.0
			for i := start; i < end; i++ {
				lat := classLatency(w.Classes[i], loadLat)
				d := lat
				if p := w.Dep1[i]; p >= 0 && int(p) >= start {
					if v := depth[int(p)-start] + lat; v > d {
						d = v
					}
				}
				if p := w.Dep2[i]; p >= 0 && int(p) >= start {
					if v := depth[int(p)-start] + lat; v > d {
						d = v
					}
				}
				depth = append(depth, d)
				if d > chunkCrit {
					chunkCrit = d
				}
				if w.Classes[i] == trace.Branch {
					// Resolution time: the chain depth up to and including
					// the branch's own execution.
					branchDepthSum += d
					branchCount++
				}
			}
			chunkLen := float64(end - start)
			if chunkLen < 8 {
				// Too small to estimate steady-state ILP.
				continue
			}
			cycleSum += chunkCrit
			instrSum += chunkLen
		}
	}
	*dp = depth[:0]
	depthPool.Put(dp)
	var b Bound
	if instrSum > 0 && cycleSum > 0 {
		b.IPC = instrSum / cycleSum
	}
	if branchCount > 0 {
		b.Cres = branchDepthSum / branchCount
	}
	return b
}
