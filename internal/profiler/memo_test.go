package profiler

import (
	"math"
	"sync"
	"testing"
)

// TestMemoBounded fills each of an epoch's memo tables past MemoCap: the
// first MemoCap keys are stored and hit afterwards, later keys are
// computed on every call, and no table grows past MemoCap. Settings
// outside an entry's key range (negative ones) are computed on every call
// too.
func TestMemoBounded(t *testing.T) {
	ep := NewEpoch()
	walks := 0
	ilp := func(rob int) (float64, float64) {
		return ep.MemoILP(rob, 4, func() (float64, float64) { walks++; return float64(rob), 1 / float64(rob+1) })
	}
	mlp := func(rob int) (float64, int) {
		return ep.MemoMLP(rob, 1.5, func() (float64, int) { walks++; return float64(rob) / 3, rob })
	}
	branch := func(bytes int) float64 {
		return ep.MemoMispredicts(bytes, func() float64 { walks++; return float64(bytes) / 7 })
	}
	keys := MemoCap + 4
	for pass := 0; pass < 2; pass++ {
		walks = 0
		for k := 0; k < keys; k++ {
			if ipc, cres := ilp(k); ipc != float64(k) || cres != 1/float64(k+1) {
				t.Fatalf("pass %d: ILP key %d returned %v, %v", pass, k, ipc, cres)
			}
			if w, n := mlp(k); w != float64(k)/3 || n != k {
				t.Fatalf("pass %d: MLP key %d returned %v, %d", pass, k, w, n)
			}
			if m := branch(k); m != float64(k)/7 {
				t.Fatalf("pass %d: branch key %d returned %v", pass, k, m)
			}
		}
		want := 3 * keys // every call walks on an empty memo
		if pass == 1 {
			want = 3 * (keys - MemoCap) // only the keys past the capacity
		}
		if walks != want {
			t.Fatalf("pass %d: %d walks, want %d", pass, walks, want)
		}
	}
	m := ep.memo.Load()
	if len(m.ilp) != MemoCap || len(m.mlp) != MemoCap || len(m.branch) != MemoCap {
		t.Fatalf("tables hold %d, %d, %d entries, capacity %d", len(m.ilp), len(m.mlp), len(m.branch), MemoCap)
	}

	fresh := NewEpoch()
	walks = 0
	for pass := 0; pass < 2; pass++ {
		fresh.MemoILP(-1, 4, func() (float64, float64) { walks++; return 0, 0 })
		fresh.MemoILP(8, -4, func() (float64, float64) { walks++; return 0, 0 })
		fresh.MemoMLP(-1, 1, func() (float64, int) { walks++; return 0, 0 })
	}
	if walks != 6 {
		t.Fatalf("settings without a key: %d walks in two passes, want 6", walks)
	}
}

// TestMemoKeys checks that each table tells apart every field of its
// key: a change of any one field is a miss.
func TestMemoKeys(t *testing.T) {
	ep := NewEpoch()
	walks := 0
	ep.MemoILP(128, 4, func() (float64, float64) { walks++; return 1, 1 })
	ep.MemoILP(128, 5, func() (float64, float64) { walks++; return 2, 2 })
	ep.MemoILP(192, 4, func() (float64, float64) { walks++; return 3, 3 })
	ep.MemoMLP(128, 100, func() (float64, int) { walks++; return 1, 1 })
	ep.MemoMLP(128, math.Nextafter(100, 101), func() (float64, int) { walks++; return 2, 2 })
	ep.MemoMLP(192, 100, func() (float64, int) { walks++; return 3, 3 })
	ep.MemoMispredicts(4096, func() float64 { walks++; return 1 })
	ep.MemoMispredicts(8192, func() float64 { walks++; return 2 })
	if walks != 8 {
		t.Fatalf("%d walks for 8 distinct keys", walks)
	}
	if ipc, _ := ep.MemoILP(128, 5, nil); ipc != 2 {
		t.Fatalf("ILP (128, 5) = %v, want 2", ipc)
	}
	if w, _ := ep.MemoMLP(128, math.Nextafter(100, 101), nil); w != 2 {
		t.Fatalf("MLP (128, 100+ulp) = %v, want 2", w)
	}
	if m := ep.MemoMispredicts(8192, nil); m != 2 {
		t.Fatalf("mispredicts at 8192 B = %v, want 2", m)
	}
}

// TestMergeDropsMemo checks that merging into an epoch drops its memo,
// whose results described the unmerged windows and branches.
func TestMergeDropsMemo(t *testing.T) {
	prof := profileBench(t, "canneal", 0.05)
	eps := prof.Threads[0].Epochs
	agg := NewEpoch()
	agg.Merge(eps[0])
	agg.MemoILP(128, 4, func() (float64, float64) { return 1, 1 })
	agg.Merge(eps[1])
	if agg.memo.Load() != nil {
		t.Fatal("Merge kept the memo of the unmerged epoch")
	}
	walked := false
	agg.MemoILP(128, 4, func() (float64, float64) { walked = true; return 2, 2 })
	if !walked {
		t.Fatal("a lookup after Merge hit a dropped entry")
	}
}

// TestMemoRacingMisses has 8 goroutines miss on the same keys at once:
// each gets the walk's result, and each key is stored once.
func TestMemoRacingMisses(t *testing.T) {
	ep := NewEpoch()
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < 8; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			for rob := 0; rob < 4; rob++ {
				if ipc, _ := ep.MemoILP(rob, 4, func() (float64, float64) { return float64(rob), 0 }); ipc != float64(rob) {
					t.Errorf("ILP key %d returned %v", rob, ipc)
				}
				if w, _ := ep.MemoMLP(rob, 2, func() (float64, int) { return float64(rob), rob }); w != float64(rob) {
					t.Errorf("MLP key %d returned %v", rob, w)
				}
				if m := ep.MemoMispredicts(rob, func() float64 { return float64(rob) }); m != float64(rob) {
					t.Errorf("branch key %d returned %v", rob, m)
				}
			}
		}()
	}
	start.Done()
	done.Wait()
	m := ep.memo.Load()
	if len(m.ilp) != 4 || len(m.mlp) != 4 || len(m.branch) != 4 {
		t.Fatalf("4 keys each stored as %d, %d, %d entries", len(m.ilp), len(m.mlp), len(m.branch))
	}
}
