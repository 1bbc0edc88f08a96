package core

import (
	"reflect"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/interval"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
)

// memoCase is one prediction of a sweep: a config and the model options.
type memoCase struct {
	cfg  arch.Config
	opts interval.ModelOptions
}

// memoCases returns the 16 SweepSpace configs, each followed by its
// LLCFromPrivateRD and NoMLP ablations, so the ablations' memo keys
// interleave with the full model's.
func memoCases() []memoCase {
	var cs []memoCase
	for _, cfg := range arch.SweepSpace(16) {
		cs = append(cs,
			memoCase{cfg, interval.ModelOptions{}},
			memoCase{cfg, interval.ModelOptions{LLCFromPrivateRD: true}},
			memoCase{cfg, interval.ModelOptions{NoMLP: true}})
	}
	return cs
}

// encoded profiles a benchmark and returns its .rpp bytes, from which
// each decode is a fresh profile with empty memos.
func encoded(t *testing.T, name string, scale float64) []byte {
	t.Helper()
	data, err := profilefmt.Encode(profileOf(t, name, scale), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decoded(t *testing.T, data []byte) *profiler.Profile {
	t.Helper()
	p, _, err := profilefmt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// freshPredictions predicts every case on its own freshly decoded
// profile, so no prediction reads a memo entry another one stored.
func freshPredictions(t *testing.T, data []byte, cs []memoCase) []*Prediction {
	t.Helper()
	want := make([]*Prediction, len(cs))
	for i, c := range cs {
		p, err := PredictOpts(decoded(t, data), c.cfg, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	return want
}

// TestMemoSweepOrders predicts the sweep, with ablations interleaved, in
// forward, reversed and interleaved orders, each on one profile whose
// memos fill as it goes: every prediction must equal the one made on a
// fresh profile, and the profile's accounted size must not move.
func TestMemoSweepOrders(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"canneal", 0.05}, {"kmeans", 0.05}, {"fluidanimate", 0.01}} {
		t.Run(c.name, func(t *testing.T) {
			data := encoded(t, c.name, c.scale)
			cs := memoCases()
			want := freshPredictions(t, data, cs)
			n := len(cs)
			orders := map[string]func(k int) int{
				"forward":     func(k int) int { return k },
				"reversed":    func(k int) int { return n - 1 - k },
				"interleaved": func(k int) int { return (k * 7) % n }, // 7 is coprime to 48
			}
			for name, at := range orders {
				prof := decoded(t, data)
				before := prof.SizeBytes()
				for k := 0; k < n; k++ {
					i := at(k)
					got, err := PredictOpts(prof, cs[i].cfg, cs[i].opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%s order, config %s %+v: prediction differs from a fresh profile's",
							name, cs[i].cfg.Name, cs[i].opts)
					}
				}
				if after := prof.SizeBytes(); after != before {
					t.Fatalf("%s order: profile size %d B before the sweep, %d B after", name, before, after)
				}
			}
		})
	}
}

// TestMemoConcurrentSweep sweeps one fresh profile from 8 goroutines at
// once, each starting at a different config, so memo misses on the same
// keys race to fill them. Every prediction must equal a fresh profile's.
func TestMemoConcurrentSweep(t *testing.T) {
	data := encoded(t, "kmeans", 0.05)
	cs := memoCases()
	want := freshPredictions(t, data, cs)
	prof := decoded(t, data)
	const workers = 8
	got := make([][]*Prediction, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*Prediction, len(cs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cs {
				i := (k + w*len(cs)/workers) % len(cs)
				if got[w][i], errs[w] = PredictOpts(prof, cs[i].cfg, cs[i].opts); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range cs {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("worker %d, config %s %+v: prediction differs from a fresh profile's",
					w, cs[i].cfg.Name, cs[i].opts)
			}
		}
	}
}

// TestMemoPastCapacity predicts more distinct ROB sizes than an epoch's
// memo holds, twice over: the predictions past the capacity are computed
// every time and must still equal a fresh profile's.
func TestMemoPastCapacity(t *testing.T) {
	data := encoded(t, "kmeans", 0.05)
	var cs []memoCase
	for k := 0; k < profiler.MemoCap+8; k++ {
		cfg := arch.Base()
		cfg.ROBSize = cfg.DispatchWidth + 8*k
		cfg.IssueQueueSize = min(cfg.IssueQueueSize, cfg.ROBSize)
		cs = append(cs, memoCase{cfg: cfg})
	}
	want := freshPredictions(t, data, cs)
	prof := decoded(t, data)
	for pass := 0; pass < 2; pass++ {
		for i, c := range cs {
			got, err := PredictOpts(prof, c.cfg, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d, ROB %d: prediction differs from a fresh profile's", pass, c.cfg.ROBSize)
			}
		}
	}
}
