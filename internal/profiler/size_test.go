package profiler

import (
	"testing"
	"unsafe"
)

// TestEpochSizeChargesModels checks the accounting of the lazily built
// StatStack models: an epoch's size is the same before and after they are
// built, and afterwards it is the epoch's own data plus the built models'
// sizes and the memo's full capacity.
func TestEpochSizeChargesModels(t *testing.T) {
	prof := profileBench(t, "canneal", 0.05)
	before := prof.SizeBytes()
	for _, th := range prof.Threads {
		for _, ep := range th.Epochs {
			pre := ep.SizeBytes()
			m := ep.Models()
			if post := ep.SizeBytes(); post != pre {
				t.Fatalf("epoch size %d B before the model build, %d B after", pre, post)
			}
			data := int64(unsafe.Sizeof(*ep)) + ep.Branch.SizeBytes() +
				ep.PrivateRD.SizeBytes() + ep.GlobalRD.SizeBytes() + ep.InstrRD.SizeBytes() +
				int64(len(ep.Windows))*int64(unsafe.Sizeof(Window{}))
			for i := range ep.Windows {
				data += ep.Windows[i].SizeBytes()
			}
			models := int64(unsafe.Sizeof(*m)) +
				m.Private.SizeBytes() + m.Global.SizeBytes() + m.Instr.SizeBytes()
			if got := ep.SizeBytes(); got != data+models+MemoBytes {
				t.Fatalf("epoch size %d B, want data %d B + models %d B + memo %d B", got, data, models, MemoBytes)
			}
		}
	}
	if after := prof.SizeBytes(); after != before {
		t.Fatalf("profile size %d B before the model builds, %d B after", before, after)
	}
}

// TestMergeDropsModels checks that merging into an epoch rebuilds its
// models from the merged histograms.
func TestMergeDropsModels(t *testing.T) {
	prof := profileBench(t, "canneal", 0.05)
	eps := prof.Threads[0].Epochs
	agg := NewEpoch()
	agg.Merge(eps[0])
	first := agg.Models()
	for _, ep := range eps[1:] {
		agg.Merge(ep)
	}
	if agg.Models() == first {
		t.Fatal("Merge kept the models of the unmerged histograms")
	}
	want := prof.Threads[0].Aggregate().Models()
	for lines := 512; lines <= 1<<18; lines *= 2 {
		if got, want := agg.Models().Global.MissRate(lines), want.Global.MissRate(lines); got != want {
			t.Fatalf("LLC miss rate at %d lines: %v after Merge, %v from a fresh aggregate", lines, got, want)
		}
	}
}
