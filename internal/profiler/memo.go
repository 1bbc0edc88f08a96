package profiler

import (
	"math"
	"sync"
	"unsafe"
)

// MemoCap is how many distinct settings each of an epoch's memoized
// analyses keeps (arch.SweepSpace(16) has 10 distinct ROB sizes). Past it
// a result is computed and not stored.
const MemoCap = 16

// memo holds the exact results of an epoch's configuration-dependent
// analyses: the ILP and MLP window walks and the branch model. Each is a
// pure function of the epoch and of a few configuration fields, which
// form its key, so predictions on configurations that agree on those
// fields share one result. Each table holds at most MemoCap entries.
// Like the models, the memo assumes the epoch no longer changes, except
// through Merge, which drops it.
type memo struct {
	mu     sync.Mutex
	ilp    []ilpEntry
	mlp    []mlpEntry
	branch []branchEntry
}

// ilpEntry is one ILP window walk: its IPC bound and branch resolution
// depth, keyed by ROB size and L1D hit latency.
type ilpEntry struct {
	rob, loadLat uint32
	ipc, cres    float64
}

// mlpEntry is one MLP window walk: the miss-weighted sum and the miss
// count, keyed by ROB size and the bits of the LLC critical distance,
// the one input of its miss predicate.
type mlpEntry struct {
	crit     uint64
	weighted float64
	rob      uint32
	misses   uint32
}

// branchEntry is the branch model's mispredictions for a predictor size.
type branchEntry struct {
	bytes       uint64
	mispredicts float64
}

func (a ilpEntry) sameKey(b ilpEntry) bool       { return a.rob == b.rob && a.loadLat == b.loadLat }
func (a mlpEntry) sameKey(b mlpEntry) bool       { return a.rob == b.rob && a.crit == b.crit }
func (a branchEntry) sameKey(b branchEntry) bool { return a.bytes == b.bytes }

// MemoBytes is the size of an epoch's memo with every table full. Every
// epoch is charged it from the start, as for its models: the memo fills
// after the profile is cached, and accounting must not depend on timing.
const MemoBytes = int64(unsafe.Sizeof(memo{})) +
	MemoCap*int64(unsafe.Sizeof(ilpEntry{})+unsafe.Sizeof(mlpEntry{})+unsafe.Sizeof(branchEntry{}))

// MemoILP returns walk's IPC bound and branch resolution depth for a ROB
// size and L1D hit latency, running walk only when no earlier call with
// the same pair stored them.
func (e *Epoch) MemoILP(rob, loadLatency int, walk func() (ipc, cres float64)) (ipc, cres float64) {
	r, okR := narrow(rob)
	l, okL := narrow(loadLatency)
	probe := ilpEntry{rob: r, loadLat: l}
	if okR && okL {
		if hit, ok := find(e, ilpTable, probe); ok {
			return hit.ipc, hit.cres
		}
	}
	ipc, cres = walk()
	if okR && okL {
		probe.ipc, probe.cres = ipc, cres
		keep(e, ilpTable, probe)
	}
	return ipc, cres
}

// MemoMLP returns walk's miss-weighted MLP sum and miss count for a ROB
// size and LLC critical distance, running walk only when no earlier call
// with the same pair stored them.
func (e *Epoch) MemoMLP(rob int, crit float64, walk func() (weighted float64, misses int)) (weighted float64, misses int) {
	r, okR := narrow(rob)
	probe := mlpEntry{rob: r, crit: math.Float64bits(crit)}
	if okR {
		if hit, ok := find(e, mlpTable, probe); ok {
			return hit.weighted, int(hit.misses)
		}
	}
	weighted, misses = walk()
	if n, okN := narrow(misses); okR && okN {
		probe.weighted, probe.misses = weighted, n
		keep(e, mlpTable, probe)
	}
	return weighted, misses
}

// MemoMispredicts returns model's misprediction count for a predictor
// size, running model only when no earlier call with the same size
// stored it.
func (e *Epoch) MemoMispredicts(bpredBytes int, model func() float64) float64 {
	probe := branchEntry{bytes: uint64(bpredBytes)}
	if hit, ok := find(e, branchTable, probe); ok {
		return hit.mispredicts
	}
	probe.mispredicts = model()
	keep(e, branchTable, probe)
	return probe.mispredicts
}

func ilpTable(m *memo) *[]ilpEntry       { return &m.ilp }
func mlpTable(m *memo) *[]mlpEntry       { return &m.mlp }
func branchTable(m *memo) *[]branchEntry { return &m.branch }

// narrow returns v as a uint32 and whether it fits; a setting that does
// not fit is computed on every call.
func narrow(v int) (uint32, bool) {
	return uint32(v), v >= 0 && uint64(v) <= math.MaxUint32
}

// find returns the entry of the epoch's table whose key is probe's.
func find[E interface{ sameKey(E) bool }](e *Epoch, table func(*memo) *[]E, probe E) (E, bool) {
	m := e.memo.Load()
	if m == nil {
		return probe, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, en := range *table(m) {
		if en.sameKey(probe) {
			return en, true
		}
	}
	return probe, false
}

// keep stores en in the epoch's table, allocating the memo on first use,
// unless the table is full or a racing call stored the key first: the
// analyses run unlocked, so concurrent misses on one key each compute
// the same result and only the first is stored.
func keep[E interface{ sameKey(E) bool }](e *Epoch, table func(*memo) *[]E, en E) {
	m := e.memo.Load()
	if m == nil {
		e.memo.CompareAndSwap(nil, new(memo))
		m = e.memo.Load()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tab := table(m)
	if len(*tab) == MemoCap {
		return
	}
	for _, old := range *tab {
		if old.sameKey(en) {
			return
		}
	}
	*tab = append(*tab, en)
}
