package core

import (
	"runtime"
	"testing"
	"unsafe"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/statstack"
	"rppm/internal/workload"
)

// liveHeap returns the live heap in bytes after forced collections (two,
// so that sync.Pool victim caches are emptied too).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestProfileHeapTruth checks that a profile's accounted size, which the
// engine's byte budget charges, matches what it holds on the heap: the
// live-heap growth across profiler.Run, without the epochs' StatStack
// models and memos, again with the models once a prediction has built
// them, and again once all 16 arch.SweepSpace configs have filled the
// memos (which are charged at their full capacity throughout). The
// tolerance is
// |accounted − heap| ≤ 25% of heap + 256 KB: the accounting ignores
// allocator size classes and slab slack, but a retained object it does not
// know of (such as a reference into the profiler's per-thread scratch)
// shows up as a multiple.
func TestProfileHeapTruth(t *testing.T) {
	fluidScale := 0.3
	if testing.Short() {
		fluidScale = 0.05
	}
	for _, c := range []struct {
		name  string
		scale float64
	}{{"swaptions", 0.1}, {"kmeans", 0.1}, {"canneal", 0.1}, {"fluidanimate", fluidScale}} {
		t.Run(c.name, func(t *testing.T) {
			bm, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			prog := bm.Build(1, c.scale)
			// A first run fills the generators' process-global tables,
			// which belong to no profile.
			if _, err := profiler.Run(prog, profiler.Options{}); err != nil {
				t.Fatal(err)
			}
			base := liveHeap()
			prof, err := profiler.Run(prog, profiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The epochs' models and memos are charged at their eventual
			// size before they are built; leave that charge out until a
			// prediction builds them.
			var models int64
			for _, th := range prof.Threads {
				for _, ep := range th.Epochs {
					models += int64(unsafe.Sizeof(profiler.Models{})) + statstack.SizeFor(ep.PrivateRD) +
						statstack.SizeFor(ep.GlobalRD) + statstack.SizeFor(ep.InstrRD) + profiler.MemoBytes
				}
			}
			check := func(stage string, acc int64) {
				heap := liveHeap() - base
				t.Logf("%s: accounted %.2f MB, heap %.2f MB", stage, float64(acc)/1e6, float64(heap)/1e6)
				if diff := acc - heap; diff > heap/4+256<<10 || -diff > heap/4+256<<10 {
					t.Errorf("%s: accounted %d B, live heap grew %d B", stage, acc, heap)
				}
			}
			check("profile", prof.SizeBytes()-models)
			if _, err := Predict(prof, arch.Base()); err != nil {
				t.Fatal(err)
			}
			check("profile with models", prof.SizeBytes())
			for _, cfg := range arch.SweepSpace(16) {
				if _, err := Predict(prof, cfg); err != nil {
					t.Fatal(err)
				}
			}
			check("profile after a 16-config sweep", prof.SizeBytes())
			runtime.KeepAlive(prof)
			// The program's own buffers were live at the base measurement;
			// releasing them during the measured run would offset the
			// profile's growth.
			runtime.KeepAlive(prog)
		})
	}
}
