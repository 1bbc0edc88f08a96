package cache

import (
	"testing"
	"testing/quick"

	"rppm/internal/arch"
	"rppm/internal/prng"
)

func smallCache() *Cache {
	return New(arch.CacheConfig{SizeBytes: 4 * 64 * 16, Assoc: 4, LineBytes: 64, HitLatency: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache()
	if hit, _, _ := c.Access(100); hit {
		t.Fatal("first access should miss")
	}
	if hit, _, _ := c.Access(100); !hit {
		t.Fatal("second access should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way set: fill one set with 4 lines, access a 5th mapping to the
	// same set — the least recently used must be evicted.
	c := smallCache()
	sets := uint64(c.Sets())
	lines := []uint64{0, sets, 2 * sets, 3 * sets, 4 * sets} // all map to set 0
	for _, l := range lines[:4] {
		c.Access(l)
	}
	// Touch line 0 so it becomes MRU; LRU is now `sets`.
	c.Access(lines[0])
	_, victim, evicted := c.Access(lines[4])
	if !evicted || victim != lines[1] {
		t.Fatalf("evicted %v (%v), want %v", victim, evicted, lines[1])
	}
	if hit, _, _ := c.Access(lines[0]); !hit {
		t.Fatal("MRU-protected line was evicted")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Access(42)
	if !c.Contains(42) {
		t.Fatal("line not present after access")
	}
	if !c.Invalidate(42) {
		t.Fatal("Invalidate missed a present line")
	}
	if c.Contains(42) {
		t.Fatal("line present after invalidate")
	}
	if c.Invalidate(42) {
		t.Fatal("Invalidate hit an absent line")
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := smallCache()
	sets := uint64(c.Sets())
	for i := uint64(0); i < 4; i++ {
		c.Access(i * sets)
	}
	// Contains on the LRU line must not rescue it.
	c.Contains(0)
	_, victim, _ := c.Access(4 * sets)
	if victim != 0 {
		t.Fatalf("victim = %v, want 0 (Contains must not update LRU)", victim)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	cfg := arch.CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, HitLatency: 1}
	c := New(cfg)
	footprint := uint64(cfg.Lines() / 2)
	// Two full passes: pass one is cold, pass two must hit entirely.
	for pass := 0; pass < 2; pass++ {
		for l := uint64(0); l < footprint; l++ {
			c.Access(l)
		}
	}
	hits, misses := c.Stats()
	if misses != footprint {
		t.Fatalf("misses = %d, want %d cold only", misses, footprint)
	}
	if hits != footprint {
		t.Fatalf("hits = %d, want %d", hits, footprint)
	}
}

func TestStatsConsistency(t *testing.T) {
	c := smallCache()
	r := prng.New(1)
	n := uint64(10000)
	for i := uint64(0); i < n; i++ {
		c.Access(r.Uint64n(1000))
	}
	hits, misses := c.Stats()
	if hits+misses != n {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, n)
	}
}

func TestAccessAlwaysInsertsProperty(t *testing.T) {
	c := smallCache()
	f := func(line uint64) bool {
		c.Access(line % 4096)
		return c.Contains(line % 4096)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func hierarchy() *Hierarchy {
	cfg := arch.Base()
	return NewHierarchy(cfg)
}

func TestHierarchyLatencies(t *testing.T) {
	h := hierarchy()
	cfg := arch.Base()
	lat, lvl := h.AccessData(0, 0x1000, false)
	if lvl != LevelMem || lat != cfg.MemLatency {
		t.Fatalf("cold access served at %v (%d cycles), want mem", lvl, lat)
	}
	lat, lvl = h.AccessData(0, 0x1000, false)
	if lvl != LevelL1 || lat != cfg.L1D.HitLatency {
		t.Fatalf("second access served at %v (%d cycles), want L1", lvl, lat)
	}
}

func TestHierarchyLLCSharedAcrossCores(t *testing.T) {
	h := hierarchy()
	h.AccessData(0, 0x2000, false) // core 0 brings the line into the LLC
	_, lvl := h.AccessData(1, 0x2000, false)
	if lvl != LevelLLC {
		t.Fatalf("core 1 served at %v, want LLC (positive interference)", lvl)
	}
}

func TestWriteInvalidation(t *testing.T) {
	h := hierarchy()
	h.AccessData(0, 0x3000, false) // core 0 caches the line
	h.AccessData(0, 0x3000, false) // L1 hit
	h.AccessData(1, 0x3000, true)  // core 1 writes: invalidates core 0
	if h.Invalidations(0) != 1 {
		t.Fatalf("core 0 invalidations = %d, want 1", h.Invalidations(0))
	}
	// Core 0's next read must not hit its (invalidated) private caches; the
	// line is dirty at core 1, so this is a remote transfer.
	_, lvl := h.AccessData(0, 0x3000, false)
	if lvl != LevelRemote {
		t.Fatalf("read after remote write served at %v, want remote", lvl)
	}
}

func TestRemoteTransferLatency(t *testing.T) {
	h := hierarchy()
	cfg := arch.Base()
	h.AccessData(2, 0x9000, true) // dirty at core 2
	lat, lvl := h.AccessData(3, 0x9000, false)
	if lvl != LevelRemote {
		t.Fatalf("served at %v, want remote", lvl)
	}
	if lat != cfg.LLC.HitLatency+remoteTransferPenalty {
		t.Fatalf("remote latency = %d", lat)
	}
	// After the downgrade, core 2 re-reading its own line is a normal hit
	// path (no remote penalty).
	_, lvl = h.AccessData(2, 0x9000, false)
	if lvl == LevelRemote {
		t.Fatal("owner re-read should not be remote after downgrade")
	}
}

func TestInstrFetchPath(t *testing.T) {
	h := hierarchy()
	lat, lvl := h.AccessInstr(0, 0x40_0000)
	if lvl != LevelMem || lat == 0 {
		t.Fatalf("cold fetch served at %v", lvl)
	}
	lat, lvl = h.AccessInstr(0, 0x40_0000)
	if lvl != LevelL1 || lat != 0 {
		t.Fatalf("warm fetch served at %v (%d cycles), want free L1 hit", lvl, lat)
	}
}

func TestServedCounters(t *testing.T) {
	h := hierarchy()
	h.AccessData(0, 0x1000, false)
	h.AccessData(0, 0x1000, false)
	s := h.Served(0)
	if s[LevelMem] != 1 || s[LevelL1] != 1 {
		t.Fatalf("served = %v", s)
	}
}

func TestServedCountersInstr(t *testing.T) {
	// Instruction fetches must show up in the per-core served counters
	// just like data accesses, or MPKI accounting undercounts the I-side.
	h := hierarchy()
	h.AccessInstr(2, 0x40_0000)
	h.AccessInstr(2, 0x40_0000)
	s := h.Served(2)
	if s[LevelMem] != 1 || s[LevelL1] != 1 {
		t.Fatalf("instr served = %v, want one mem + one L1", s)
	}
	if got := h.Served(0); got[LevelMem] != 0 || got[LevelL1] != 0 {
		t.Fatalf("wrong core charged: %v", got)
	}
}

func TestWriteThenReadSameCore(t *testing.T) {
	h := hierarchy()
	h.AccessData(1, 0x5000, true)
	_, lvl := h.AccessData(1, 0x5000, false)
	if lvl != LevelL1 {
		t.Fatalf("own dirty line read served at %v, want L1", lvl)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := hierarchy()
	r := prng.New(1)
	for i := 0; i < b.N; i++ {
		h.AccessData(i%4, r.Uint64n(1<<24)&^63, i%8 == 0)
	}
}

// TestMRUFastPathMatchesAccess drives two mirrored hierarchies with the
// same access stream; one routes loads, stores and fetches through the
// LoadMRU/StoreMRU/InstrMRU fast paths first (falling back to the full
// path on false, exactly as the simulator does), the other always takes
// the full path. Latencies, serving levels, counters and coherence
// behavior must be identical — the fast path is a pure shortcut. The
// subtest runs the stream on the default (Base) configuration.
func TestMRUFastPathMatchesAccess(t *testing.T) {
	t.Run("default", func(t *testing.T) { testMRUFastPath(t, arch.Base()) })
}

func testMRUFastPath(t *testing.T, cfg arch.Config) {
	fast := NewHierarchy(cfg)
	ref := NewHierarchy(cfg)
	r := prng.New(99)
	// Mix of private and shared lines across cores, reads and writes and
	// instruction fetches, with enough reuse for the MRU path to fire often.
	for i := 0; i < 60000; i++ {
		core := r.Intn(cfg.Cores)
		addr := r.Uint64n(1<<14) * 8 // 16 KiB footprint: heavy L1 reuse
		if r.Intn(8) == 0 {
			addr = 1<<20 + r.Uint64n(1<<18)*64 // colder shared region
		}
		switch r.Intn(4) {
		case 0: // instruction fetch
			pc := 1<<30 + addr
			if !fast.InstrMRU(core, pc) {
				fast.AccessInstr(core, pc)
			}
			ref.AccessInstr(core, pc)
		case 1: // write
			if !fast.StoreMRU(core, addr) {
				fast.AccessData(core, addr, true)
			}
			ref.AccessData(core, addr, true)
		default: // read
			var lat int
			var lvl Level
			if fast.LoadMRU(core, addr) {
				lat, lvl = cfg.L1D.HitLatency, LevelL1
			} else {
				lat, lvl = fast.AccessData(core, addr, false)
			}
			wantLat, wantLvl := ref.AccessData(core, addr, false)
			if lat != wantLat || lvl != wantLvl {
				t.Fatalf("op %d: read core %d addr %#x = (%d,%v), ref (%d,%v)",
					i, core, addr, lat, lvl, wantLat, wantLvl)
			}
		}
	}
	for core := 0; core < cfg.Cores; core++ {
		got, want := fast.Served(core), ref.Served(core)
		for lvl := range got {
			if got[lvl] != want[lvl] {
				t.Fatalf("core %d level %s: served %d, ref %d",
					core, Level(lvl), got[lvl], want[lvl])
			}
		}
		if fast.Invalidations(core) != ref.Invalidations(core) {
			t.Fatalf("core %d: invalidations differ", core)
		}
	}
	if fast.FilterHits() != ref.FilterHits() {
		t.Fatalf("filter hits %d, ref %d", fast.FilterHits(), ref.FilterHits())
	}
}
