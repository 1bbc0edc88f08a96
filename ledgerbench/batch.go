package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/engine"
	"rppm/internal/experiments"
	"rppm/internal/sim"
	"rppm/internal/workload"
)

const (
	// fig4Scale is the rppm-experiments default fidelity.
	fig4Scale = 0.3
	// dseScale applies to the fixed-suite dse entries; family entries run
	// at their registry-pinned scale.
	dseScale = 0.3
	// dseConfigs is the size of the explored design space.
	dseConfigs = 16
	// predictReps is how often fig4 times each benchmark's prediction.
	predictReps = 3
	// setupReps is how often a batch run repeats its set-up before the
	// first pass; setup_s is the median. setupGCEvery bounds the garbage
	// the paused collector lets the set-ups pile up.
	setupReps    = 101
	setupGCEvery = 10
	// fig4ErrPasses and dseErrPasses are the passes a run always makes;
	// the error metrics average over exactly these, so they depend on the
	// seed alone, and more workload instances narrow their seed-to-seed
	// spread.
	fig4ErrPasses = 8
	dseErrPasses  = 5
)

// dseEntries span the epoch range (13, 34 and 2433 epochs) so per-epoch
// costs separate from per-instruction costs; skewed-sharing is the one
// entry large enough for the config-batched sweep path.
var dseEntries = []string{"swaptions", "kmeans", "fluidanimate", "skewed-sharing"}

// registryFile is the suite registry, read from the checkout root.
var registryFile = filepath.Join("internal", "workload", "suites.toml")

// jobItem is one benchmark instance a batch workload runs.
type jobItem struct {
	bm    workload.Benchmark
	scale float64
}

// loadRegistry parses the suite registry from the checkout.
func loadRegistry() (*workload.SuiteRegistry, error) {
	data, err := os.ReadFile(registryFile)
	if err != nil {
		return nil, err
	}
	return workload.ParseSuites(data)
}

// fig4Job is the fig4 set-up: load the registry, resolve the 26-benchmark
// suite and instantiate every program.
func fig4Job(seed uint64) ([]jobItem, error) {
	if _, err := loadRegistry(); err != nil {
		return nil, err
	}
	var items []jobItem
	for _, bm := range workload.Suite() {
		if bm.Build(seed, fig4Scale) == nil {
			return nil, fmt.Errorf("%s: nil program", bm.Name)
		}
		items = append(items, jobItem{bm, fig4Scale})
	}
	return items, nil
}

// dseJob is the dse set-up: load the registry, resolve the four entries
// and instantiate every program.
func dseJob(seed uint64) ([]jobItem, error) {
	reg, err := loadRegistry()
	if err != nil {
		return nil, err
	}
	var items []jobItem
	for _, name := range dseEntries {
		e, ok := reg.ByName(name)
		if !ok {
			return nil, fmt.Errorf("registry has no entry %q", name)
		}
		bm, err := e.Benchmark()
		if err != nil {
			return nil, err
		}
		scale := dseScale
		if e.Family != "" {
			scale = e.Scale
		}
		if bm.Build(seed, scale) == nil {
			return nil, fmt.Errorf("%s: nil program", name)
		}
		items = append(items, jobItem{bm, scale})
	}
	return items, nil
}

// timedSetup runs setup reps times and returns the last result and each
// rep's duration in seconds. The collector is paused meanwhile and
// collects, untimed, before every setupGCEvery-th rep: a set-up allocates
// about 10 MB (fig4), and a collection, or the page faults on memory it
// returned to the OS, would otherwise land on some set-ups and not
// others. With a collection before every rep instead, the median fig4
// set-up on a shared 2-vCPU host read 5.4 ms over one ten-run set and
// 3.6 ms over another half an hour later.
func timedSetup(reps int, setup func() ([]jobItem, error)) ([]jobItem, []float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var items []jobItem
	d := make([]float64, reps)
	for i := range d {
		if i%setupGCEvery == 0 {
			runtime.GC()
		}
		t := time.Now()
		it, err := setup()
		if err != nil {
			return nil, nil, err
		}
		d[i] = time.Since(t).Seconds()
		items = it
	}
	return items, d, nil
}

// setSetup reports the median set-up time as setup_s and keeps the
// fastest in the record.
func setSetup(r *report, d []float64) {
	r.set("setup_s", "s", median(d))
	r.Detail["setup_min_s"] = slices.Min(d)
}

// signedError mirrors the experiments package: (predicted-actual)/actual.
func signedError(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return (predicted - actual) / actual
}

func newSession(workers int) *engine.Session {
	return engine.New(engine.Options{Workers: workers}).NewSession()
}

// passSeed is the workload seed of a batch run's pass k: consecutive
// passes regenerate different workload instances, so one run averages
// over several inputs. Run seed 1 starts at the golden seed 1.
func passSeed(seed uint64, k int) uint64 { return (seed-1)*maxPasses + uint64(k) + 1 }

// maxPasses bounds a batch run's passes and spaces run seeds' pass seeds
// apart.
const maxPasses = 64

// morePasses reports whether a batch run starts pass k: the first always
// passes run whatever the time, later ones until the deadline.
func morePasses(k, always int, deadline time.Time) bool {
	return k < always || (k < maxPasses && time.Now().Before(deadline))
}

// shadowed returns the benchmark names the suite declares more than once.
// The engine keys artifacts by name, so such rows share one program —
// whichever instance a concurrent Figure 4 reached first.
func shadowed(items []jobItem) map[string]bool {
	n := map[string]int{}
	for _, it := range items {
		n[it.bm.Name]++
	}
	out := map[string]bool{}
	for name, c := range n {
		if c > 1 {
			out[name] = true
		}
	}
	return out
}

// fastest keeps the smallest value seen per slot: a slot's fastest pass
// is the one the host disturbed least.
type fastest []float64

func newFastest(n int) fastest {
	f := make(fastest, n)
	for i := range f {
		f[i] = math.Inf(1)
	}
	return f
}

func (f fastest) see(i int, v float64) { f[i] = math.Min(f[i], v) }

func (f fastest) sum() float64 {
	var s float64
	for _, v := range f {
		s += v
	}
	return s
}

// retainedMB collects and returns the live heap while sess still holds
// every artifact its pass built.
func retainedMB(sess *engine.Session) float64 {
	runtime.GC()
	mb := liveMB()
	runtime.KeepAlive(sess)
	return mb
}

// runFig4 regenerates Figure 4 in back-to-back passes, each on a fresh
// session and its own pass seed. After each pass it times a serial
// core.Predict (fastest of predictReps) and sim.RunHinted per benchmark on
// the pass's cached profile and recording; those direct results must
// reproduce the pass's rows bit for bit.
func runFig4(rc *runCtx, r *report) error {
	ctx := context.Background()
	items, setup, err := timedSetup(setupReps, func() ([]jobItem, error) { return fig4Job(passSeed(rc.seed, 0)) })
	if err != nil {
		return err
	}
	base := arch.Base()
	dup := shadowed(items)

	var walls, retained, passPred, passSim, errMeans, errMaxes []float64
	predMs, simMs := newFastest(len(items)), newFastest(len(items))
	deadline := time.Now().Add(rc.seconds)
	for pass := 0; morePasses(pass, fig4ErrPasses, deadline); pass++ {
		seed := passSeed(rc.seed, pass)
		runtime.GC()
		sess := newSession(rc.workers)
		t := time.Now()
		res, err := experiments.Figure4(experiments.Config{Scale: fig4Scale, Seed: seed, Session: sess})
		wall := time.Since(t)
		r.Ops.Attempted++
		if err != nil {
			r.Ops.Failed++
			continue
		}
		walls = append(walls, wall.Seconds())
		var pp, ps float64
		for i, it := range items {
			r.Ops.Attempted++
			prof, err := sess.Profile(ctx, it.bm, seed, it.scale)
			if err != nil {
				r.Ops.Failed++
				continue
			}
			rec, err := sess.Recorded(ctx, it.bm, seed, it.scale)
			if err != nil {
				r.Ops.Failed++
				continue
			}
			var pred *core.Prediction
			fast := math.Inf(1)
			for k := 0; k < predictReps; k++ {
				t0 := time.Now()
				p, perr := core.Predict(prof, base)
				fast = math.Min(fast, ms(time.Since(t0)))
				if perr != nil {
					err = perr
				} else if pred != nil && !reflect.DeepEqual(p, pred) {
					r.Ops.Wrong++ // the same prediction must repeat exactly
				}
				pred = p
			}
			if err != nil {
				r.Ops.Failed++
				continue
			}
			predMs.see(i, fast)
			pp += fast
			t0 := time.Now()
			sr, err := sim.RunHinted(rec, base, sim.Hints{DataLines: rec.DataLineBound()})
			sd := ms(time.Since(t0))
			simMs.see(i, sd)
			ps += sd
			if err != nil {
				r.Ops.Failed++
				continue
			}
			row := res.Rows[i]
			if row.Name != it.bm.Name || sr.Cycles != row.SimCy || signedError(pred.Cycles, sr.Cycles) != row.RPPM {
				r.Ops.Wrong++
			}
		}
		passPred = append(passPred, pp)
		passSim = append(passSim, ps)
		retained = append(retained, retainedMB(sess))
		if pass < fig4ErrPasses {
			var errs []float64
			for _, row := range res.Rows {
				if !dup[row.Name] { // a shadowed name's rows are one program, whichever ran first
					errs = append(errs, math.Abs(row.RPPM))
				}
			}
			mean, max := meanMax(errs)
			errMeans = append(errMeans, mean)
			errMaxes = append(errMaxes, max)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no Figure 4 pass succeeded")
	}
	setSetup(r, setup)
	r.set("wall_s", "s", slices.Min(walls))
	r.set("heap_peak_mb", "MB", median(retained))
	setPredictSim(r, predMs.sum(), simMs.sum())
	setErr(r, errMeans, errMaxes)
	r.Detail["passes"] = len(walls)
	r.Detail["pass_wall_s"] = walls
	r.Detail["pass_retained_mb"] = retained
	r.Detail["pass_predict_ms"] = passPred
	r.Detail["pass_simulate_ms"] = passSim
	r.Detail["shadowed_names_excluded_from_error"] = dup
	r.check("fig4-direct-rows", r.Ops.Wrong == 0,
		"serial core.Predict + sim.RunHinted reproduce every Figure 4 row in %d passes", len(walls))
	return nil
}

// setPredictSim reports the per-config prediction and simulation costs and
// their ratio; the record keeps both bases next to the ratio.
func setPredictSim(r *report, predMs, simMs float64) {
	r.set("predict_ms_per_config", "ms", predMs)
	r.set("simulate_ms_per_config", "ms", simMs)
	r.set("predict_speedup", "x", simMs/predMs)
}

// runDSE profiles each entry once per pass on a fresh session, predicts
// every config of arch.SweepSpace(16) with Session.Predict one at a time,
// then runs Session.SimulateSweep over the same configs (which fans out
// across the engine pool and batches configs for the large entry). Every
// prediction must equal a direct core.Predict on the same profile; that
// direct call is a second timing of the same prediction, and each config
// counts the faster of the two.
func runDSE(rc *runCtx, r *report) error {
	ctx := context.Background()
	items, setup, err := timedSetup(setupReps, func() ([]jobItem, error) { return dseJob(passSeed(rc.seed, 0)) })
	if err != nil {
		return err
	}
	cfgs := arch.SweepSpace(dseConfigs)
	nCfg := float64(len(cfgs))

	var walls, retained, passPred, passSim, errMeans, errMaxes []float64
	predMs, simMs := newFastest(len(items)), newFastest(len(items)) // per entry, per config
	deadline := time.Now().Add(rc.seconds)
	for pass := 0; morePasses(pass, dseErrPasses, deadline); pass++ {
		seed := passSeed(rc.seed, pass)
		runtime.GC()
		sess := newSession(rc.workers)
		preds := make([][]*core.Prediction, len(items))
		sims := make([][]*sim.Result, len(items))
		predDur := make([][]time.Duration, len(items))
		entrySim := make([]time.Duration, len(items))
		ok := true
		t := time.Now()
		for i, it := range items {
			r.Ops.Attempted++
			if _, err := sess.Profile(ctx, it.bm, seed, it.scale); err != nil {
				r.Ops.Failed++
				ok = false
				continue
			}
			preds[i] = make([]*core.Prediction, len(cfgs))
			predDur[i] = make([]time.Duration, len(cfgs))
			for c, cfg := range cfgs {
				r.Ops.Attempted++
				t0 := time.Now()
				p, err := sess.Predict(ctx, it.bm, seed, it.scale, cfg)
				predDur[i][c] = time.Since(t0)
				if err != nil {
					r.Ops.Failed++
					ok = false
					continue
				}
				preds[i][c] = p
			}
			r.Ops.Attempted++
			t0 := time.Now()
			sims[i], err = sess.SimulateSweep(ctx, it.bm, seed, it.scale, cfgs)
			entrySim[i] = time.Since(t0)
			if err != nil {
				r.Ops.Failed++
				ok = false
			}
		}
		wall := time.Since(t)
		if !ok {
			continue
		}
		walls = append(walls, wall.Seconds())
		var pp, ps float64
		var errs []float64
		for i, it := range items {
			prof, err := sess.Profile(ctx, it.bm, seed, it.scale)
			if err != nil {
				return err
			}
			var pred time.Duration
			for c, cfg := range cfgs {
				t0 := time.Now()
				direct, err := core.Predict(prof, cfg)
				pred += min(predDur[i][c], time.Since(t0))
				if err != nil {
					return fmt.Errorf("direct core.Predict %s/%s: %w", it.bm.Name, cfg.Name, err)
				}
				if !reflect.DeepEqual(preds[i][c], direct) {
					r.Ops.Wrong++
				}
				errs = append(errs, math.Abs(preds[i][c].Cycles-sims[i][c].Cycles)/sims[i][c].Cycles)
			}
			predMs.see(i, ms(pred)/nCfg)
			simMs.see(i, ms(entrySim[i])/nCfg)
			pp += ms(pred) / nCfg
			ps += ms(entrySim[i]) / nCfg
		}
		passPred = append(passPred, pp)
		passSim = append(passSim, ps)
		retained = append(retained, retainedMB(sess))
		if pass < dseErrPasses {
			mean, max := meanMax(errs)
			errMeans = append(errMeans, mean)
			errMaxes = append(errMaxes, max)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no dse pass succeeded")
	}
	entries := map[string]map[string]float64{}
	for i, it := range items {
		entries[it.bm.Name] = map[string]float64{"predict_ms_per_config": predMs[i], "simulate_ms_per_config": simMs[i]}
	}
	setSetup(r, setup)
	r.set("wall_s", "s", slices.Min(walls))
	r.set("heap_peak_mb", "MB", median(retained))
	setPredictSim(r, predMs.sum(), simMs.sum())
	setErr(r, errMeans, errMaxes)
	r.Detail["passes"] = len(walls)
	r.Detail["pass_wall_s"] = walls
	r.Detail["pass_retained_mb"] = retained
	r.Detail["pass_predict_ms"] = passPred
	r.Detail["pass_simulate_ms"] = passSim
	r.Detail["entries"] = entries
	r.check("dse-direct-predict", r.Ops.Wrong == 0,
		"every Session.Predict equals core.Predict on the same profile, %d passes", len(walls))
	return nil
}

// setErr reports RPPM's error against the simulator: the mean over the
// workload's first error passes of each pass's mean and maximum absolute
// error, so the figures depend on the run seed alone.
func setErr(r *report, means, maxes []float64) {
	mean, _ := meanMax(means)
	max, _ := meanMax(maxes)
	r.set("rppm_err_mean_pct", "%", mean*100)
	r.set("rppm_err_max_pct", "%", max*100)
}

// meanMax returns the mean and the maximum of xs.
func meanMax(xs []float64) (mean, max float64) {
	for _, x := range xs {
		mean += x
		if x > max {
			max = x
		}
	}
	if len(xs) > 0 {
		mean /= float64(len(xs))
	}
	return mean, max
}
