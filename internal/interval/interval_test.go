package interval

import (
	"math"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/workload"
)

func profileOf(t *testing.T, name string, scale float64) *profiler.Profile {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Run(bm.Build(1, scale), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEmptyEpochZeroStack(t *testing.T) {
	cfg := arch.Base()
	st := PredictEpoch(profiler.NewEpoch(), &cfg)
	if st.ActiveCycles() != 0 || st.Instr != 0 {
		t.Fatalf("empty epoch produced %v", st)
	}
}

func TestStackArithmetic(t *testing.T) {
	a := Stack{Instr: 10, Base: 5, Branch: 1, ICache: 2, MemL2: 3, MemLLC: 4, MemDRAM: 5, Sync: 6}
	b := Stack{Instr: 10, Base: 5}
	a.Add(b)
	if a.Instr != 20 || a.Base != 10 {
		t.Fatalf("Add broken: %+v", a)
	}
	if a.ActiveCycles() != 10+1+2+3+4+5 {
		t.Fatalf("ActiveCycles = %v", a.ActiveCycles())
	}
	if a.TotalCycles() != a.ActiveCycles()+6 {
		t.Fatalf("TotalCycles = %v", a.TotalCycles())
	}
	if math.Abs(a.CPI()-a.TotalCycles()/20) > 1e-12 {
		t.Fatalf("CPI = %v", a.CPI())
	}
	var zero Stack
	if zero.CPI() != 0 {
		t.Fatal("zero stack CPI should be 0")
	}
}

func TestComponentsSumToTotal(t *testing.T) {
	st := Stack{Instr: 1, Base: 1, Branch: 2, ICache: 3, MemL2: 4, MemLLC: 5, MemDRAM: 6, Sync: 7}
	sum := 0.0
	for _, c := range st.Components() {
		sum += c.Cycles
	}
	if math.Abs(sum-st.TotalCycles()) > 1e-12 {
		t.Fatalf("components sum %v != total %v", sum, st.TotalCycles())
	}
}

func TestBasePositiveAndBounded(t *testing.T) {
	prof := profileOf(t, "cfd", 0.05)
	cfg := arch.Base()
	for _, tp := range prof.Threads {
		for _, ep := range tp.Epochs {
			if ep.Instr == 0 {
				continue
			}
			st := PredictEpoch(ep, &cfg)
			if st.Base <= 0 {
				t.Fatal("non-positive base for non-empty epoch")
			}
			// Base cannot beat one instruction per cycle per dispatch slot.
			if st.Base < float64(ep.Instr)/float64(cfg.DispatchWidth)-1e-9 {
				t.Fatalf("base %v below width bound for %d instructions", st.Base, ep.Instr)
			}
		}
	}
}

func TestWiderCoreLowersBase(t *testing.T) {
	prof := profileOf(t, "nn", 0.1)
	space := arch.DesignSpace()
	agg := prof.Threads[1].Aggregate()
	smallest := PredictEpoch(agg, &space[0])
	biggest := PredictEpoch(agg, &space[4])
	if biggest.Base > smallest.Base {
		t.Fatalf("6-wide base %v above 2-wide base %v", biggest.Base, smallest.Base)
	}
}

func TestBiggerCacheLowersMemory(t *testing.T) {
	prof := profileOf(t, "bfs", 0.1)
	small := arch.Base()
	big := arch.Base()
	big.LLC.SizeBytes *= 8
	agg := prof.Threads[1].Aggregate()
	ms := PredictEpoch(agg, &small)
	mb := PredictEpoch(agg, &big)
	if mb.MemDRAM > ms.MemDRAM+1e-9 {
		t.Fatalf("bigger LLC increased DRAM component: %v vs %v", mb.MemDRAM, ms.MemDRAM)
	}
}

func TestAblationOptionsChangePrediction(t *testing.T) {
	prof := profileOf(t, "kmeans", 0.1) // heavy sharing
	cfg := arch.Base()
	agg := prof.Threads[1].Aggregate()
	full := PredictEpochOpts(agg, &cfg, ModelOptions{})
	noGlobal := PredictEpochOpts(agg, &cfg, ModelOptions{LLCFromPrivateRD: true})
	noMLP := PredictEpochOpts(agg, &cfg, ModelOptions{NoMLP: true})
	if full.ActiveCycles() == noGlobal.ActiveCycles() {
		t.Fatal("LLCFromPrivateRD ablation had no effect on a sharing workload")
	}
	if noMLP.MemDRAM <= full.MemDRAM {
		t.Fatal("disabling MLP should increase the DRAM component")
	}
}

func TestPredictThreadEqualsEpochSum(t *testing.T) {
	prof := profileOf(t, "lud", 0.05)
	cfg := arch.Base()
	tp := prof.Threads[2]
	whole := PredictThread(tp, &cfg)
	var sum Stack
	for _, ep := range tp.Epochs {
		sum.Add(PredictEpoch(ep, &cfg))
	}
	if math.Abs(whole.ActiveCycles()-sum.ActiveCycles()) > 1e-6 {
		t.Fatal("PredictThread disagrees with summed epochs")
	}
}

func TestDiagnoseConsistent(t *testing.T) {
	prof := profileOf(t, "nw", 0.05)
	cfg := arch.Base()
	agg := prof.Threads[1].Aggregate()
	d := Diagnose(agg, &cfg)
	if d.Deff <= 0 || d.Deff > float64(cfg.DispatchWidth) {
		t.Fatalf("Deff = %v", d.Deff)
	}
	if d.MissRate.L1D < d.MissRate.L2 || d.MissRate.L2 < d.MissRate.LLC {
		t.Fatalf("miss rates not monotone: %+v", d.MissRate)
	}
	if d.MLP < 1 || d.MLP > float64(cfg.MSHRs) {
		t.Fatalf("MLP = %v", d.MLP)
	}
	// nw pointer-chases (LoadChainFrac 0.5): its MLP must be low.
	if d.MLP > 3 {
		t.Fatalf("nw MLP = %v, expected pointer-chasing to keep it low", d.MLP)
	}
}

func TestEffectiveMLP(t *testing.T) {
	if effectiveMLP(1) != 1 {
		t.Fatal("effectiveMLP(1) must be 1")
	}
	if e := effectiveMLP(5); e <= 1 || e >= 5 {
		t.Fatalf("effectiveMLP(5) = %v, want in (1, 5)", e)
	}
}

// TestMemoSeparatesSettings predicts one profile on configs that each
// change one field a memoized analysis reads (ROB size, L1D hit latency,
// LLC size, MSHRs, predictor size), in turn and back, so every prediction
// after the first meets a memo filled by the others. Each epoch's stack
// must equal its stack on a fresh profile.
func TestMemoSeparatesSettings(t *testing.T) {
	base := arch.Base()
	variants := []func(c *arch.Config){
		func(c *arch.Config) {},
		func(c *arch.Config) { c.ROBSize *= 2 },
		func(c *arch.Config) { c.L1D.HitLatency++ },
		// An LLC small enough that its critical distance falls among the
		// windows' finite reuse distances, so the MLP walk depends on it.
		func(c *arch.Config) { c.LLC.SizeBytes = 64 << 10 },
		func(c *arch.Config) { c.MSHRs = 2 },
		func(c *arch.Config) { c.BPredBytes *= 4 },
	}
	cfgs := make([]arch.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = base
		v(&cfgs[i])
		if err := cfgs[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	prof := profileOf(t, "canneal", 0.05)
	for pass := 0; pass < 2; pass++ {
		for i := range cfgs {
			fresh := profileOf(t, "canneal", 0.05)
			for th := range prof.Threads {
				for k, ep := range prof.Threads[th].Epochs {
					got := PredictEpoch(ep, &cfgs[i])
					if want := PredictEpoch(fresh.Threads[th].Epochs[k], &cfgs[i]); got != want {
						t.Fatalf("pass %d, variant %d, thread %d epoch %d: %v, fresh profile %v", pass, i, th, k, got, want)
					}
				}
			}
		}
	}
}

// TestDiagnoseMemoHit checks that Diagnose answers from a filled memo
// exactly as from an empty one.
func TestDiagnoseMemoHit(t *testing.T) {
	cfg := arch.Base()
	prof := profileOf(t, "nw", 0.05)
	agg := prof.Threads[1].Aggregate()
	want := Diagnose(prof.Threads[1].Aggregate(), &cfg)
	PredictEpoch(agg, &cfg)
	if got := Diagnose(agg, &cfg); got != want {
		t.Fatalf("Diagnose after a prediction filled the memo: %+v, on a fresh aggregate %+v", got, want)
	}
	ep := prof.Threads[1].Epochs[0]
	first := Diagnose(ep, &cfg)
	if got := Diagnose(ep, &cfg); got != first {
		t.Fatalf("second Diagnose of an epoch: %+v, first %+v", got, first)
	}
}
