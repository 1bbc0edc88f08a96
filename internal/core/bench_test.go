package core

import (
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/workload"
)

// BenchmarkPredictSweep16 times RPPM's "rapid" step: one profile predicted
// on each of the 16 arch.SweepSpace configs, reported as ms/config. The
// profile is fluidanimate's, whose 2,433 epochs (at scale 0.3) make the
// per-epoch model cost visible. cold decodes a fresh copy of the profile
// outside the timer before every sweep, so it is a first sweep: the
// one-time StatStack model build is counted, and the epochs' memos start
// empty, so every distinct ROB size, critical distance and predictor size
// runs its window walk or branch model once. warm reuses one profile that
// has been swept before: its models are built and every memo lookup hits.
func BenchmarkPredictSweep16(b *testing.B) {
	scale := 0.3
	if testing.Short() {
		scale = 0.02
	}
	bm, err := workload.ByName("fluidanimate")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profiler.Run(bm.Build(1, scale), profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	data, err := profilefmt.Encode(prof, profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := arch.SweepSpace(16)
	sweep := func(b *testing.B, p *profiler.Profile) {
		for _, cfg := range cfgs {
			if _, err := Predict(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	perConfig := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs))/1e6, "ms/config")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, _, err := profilefmt.Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			sweep(b, p)
		}
		perConfig(b)
	})
	b.Run("warm", func(b *testing.B) {
		sweep(b, prof)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, prof)
		}
		perConfig(b)
	})
}
