package profiler_test

import (
	"testing"

	"rppm/internal/profiler"
	"rppm/internal/workload"
)

// BenchmarkProfilerInstr measures the profiler's per-instruction cost on a
// multithreaded barrier loop: the whole functional execution, reuse-distance
// tracking and window sampling divided by the dynamic instruction count.
func BenchmarkProfilerInstr(b *testing.B) {
	prog := workload.BarrierLoop(4, 8, 20000, 1)
	total := prog.TotalInstructions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.Run(prog, profiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
}

// BenchmarkProfileManyEpochs profiles fluidanimate, whose 2,433 epochs at
// scale 0.3 (scale 0.02 under -short) expose the per-epoch costs a barrier
// loop hides: sealing each epoch's histograms and keeping its windows. It
// reports ns/instr, and retained-MB, the finished profile's accounted
// size (Profile.SizeBytes).
func BenchmarkProfileManyEpochs(b *testing.B) {
	scale := 0.3
	if testing.Short() {
		scale = 0.02
	}
	bm, err := workload.ByName("fluidanimate")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(1, scale)
	total := prog.TotalInstructions()
	var prof *profiler.Profile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if prof, err = profiler.Run(prog, profiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/instr")
	b.ReportMetric(float64(prof.SizeBytes())/1e6, "retained-MB")
}
