package core

import (
	"reflect"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
)

// TestConcurrentPredictFreshProfile predicts one freshly decoded profile
// from 8 goroutines at once, each on a different config, so the epochs'
// StatStack models are built under contention. Every result must equal the
// serial prediction, and the profile's accounted size must not change
// with the models' build.
func TestConcurrentPredictFreshProfile(t *testing.T) {
	prof := profileOf(t, "fluidanimate", 0.02)
	data, err := profilefmt.Encode(prof, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := arch.SweepSpace(8)
	serial := make([]*Prediction, len(cfgs))
	for i, cfg := range cfgs {
		if serial[i], err = Predict(prof, cfg); err != nil {
			t.Fatal(err)
		}
	}

	fresh, _, err := profilefmt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	before := fresh.SizeBytes()
	got := make([]*Prediction, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Predict(fresh, cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], serial[i]) {
			t.Errorf("config %s: concurrent prediction differs from serial", cfg.Name)
		}
	}
	if after := fresh.SizeBytes(); after != before {
		t.Errorf("profile size %d B before the first prediction, %d B after", before, after)
	}
}
