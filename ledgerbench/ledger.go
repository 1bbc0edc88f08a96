package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/experiments"
	"rppm/internal/ilp"
	"rppm/internal/interval"
	"rppm/internal/mlp"
	"rppm/internal/obs"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/server"
	"rppm/internal/sim"
	"rppm/internal/stats"
	"rppm/internal/statstack"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// Tolerances of the layer-sum checks.
const (
	// minCoverage is the least share of the traced chain's wall time its
	// layer spans must cover; the rest is the benchmark's own glue.
	minCoverage = 0.95
	// partsMax bounds resolve+build+encode as a share of the separately
	// timed handler: the parts may not exceed the whole by more than timing
	// noise, so the rest, server.other_us (parse, routing, tracing and
	// logging), is not negative. There is no lower bound: how much of the
	// handler the parts explain differs from host to host and falls when a
	// part gets faster, so it is a cost, not a check.
	partsMax = 1.05
	// handlerMax bounds the in-process handler time as a share of the
	// separately timed loopback round trip that contains it.
	handlerMax = 1.05
	// batchWidth caps configs per sim.RunBatch call, as the engine does.
	batchWidth = 8
	// symexecMinReps, symexecMaxReps and symexecBudget bound how often
	// the chain runs Σ PredictEpoch and core.Predict per config: cheap
	// entries repeat until the budget is spent, so their fastest runs
	// are close to the noise-free time.
	symexecMinReps = 3
	symexecMaxReps = 50
	symexecBudget  = 40 * time.Millisecond
)

// perLayer is every per-layer metric, reported by the traced run of every
// workload. README.md maps each to the end-to-end metric it should move.
func perLayer() []spec {
	s := []spec{
		{"workload.gen_ns_per_instr", "ns/instr", "lower"},
		{"workload.resolve_us", "us", "lower"},
		{"trace.record_ns_per_instr", "ns/instr", "lower"},
		{"trace.bytes_per_instr", "B/instr", "lower"},
		{"trace.decode_ns_per_instr", "ns/instr", "lower"},
		{"profiler.ns_per_instr", "ns/instr", "lower"},
		{"profiler.epochs", "count", "lower"},
		{"statstack.build_us_per_epoch", "us", "lower"},
		{"ilp.analyze_us_per_epoch", "us", "lower"},
		{"mlp.compute_us_per_epoch", "us", "lower"},
		{"branchmodel.mispredicts_us_per_epoch", "us", "lower"},
		{"interval.epoch_us", "us", "lower"},
		{"sim.ns_per_instr", "ns/instr", "lower"},
		{"sim.batch_ns_per_instr", "ns/instr", "lower"},
		{"engine.hit_us", "us", "lower"},
		{"engine.hit_ratio", "ratio", "higher"},
		{"engine.evictions", "count", "lower"},
		{"engine.demotions", "count", "lower"},
		{"engine.promotions", "count", "lower"},
		{"engine.profile_runs", "count", "lower"},
		{"engine.profile_loads", "count", "lower"},
		{"engine.pool_wait_ms", "ms", "lower"},
		{"engine.bytes_resident_mb", "MB", "lower"},
		{"profilefmt.encode_ms", "ms", "lower"},
		{"profilefmt.decode_ms", "ms", "lower"},
		{"profilefmt.bytes", "B", "lower"},
		{"store.retries", "count", "lower"},
		{"store.quarantined", "count", "lower"},
		{"server.build_us", "us", "lower"},
		{"server.encode_us", "us", "lower"},
		{"server.handler_us", "us", "lower"},
		{"server.other_us", "us", "lower"},
		{"server.allocs_per_req", "count", "lower"},
		{"http.roundtrip_us", "us", "lower"},
		{"http.transport_us", "us", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
		{"loadgen.sent", "count", "higher"},
		{"loadgen.failed", "count", "lower"},
		{"loadgen.late_ms_p99", "ms", "lower"},
		{"loadgen.backlog_max", "count", "lower"},
		{"obs.overhead_ms", "ms", "lower"},
		{"env.calib_ns_per_op", "ns", "lower"},
	}
	for _, e := range dseEntries {
		s = append(s,
			spec{"core.predict_ms." + e, "ms", "lower"},
			spec{"core.symexec_ms." + e, "ms", "lower"},
			spec{"sim.ms." + e, "ms", "lower"})
	}
	return s
}

// --- span trees ------------------------------------------------------------

// spanNode is one span of a finished trace with its children.
type spanNode struct {
	name     string
	start    time.Duration
	dur      time.Duration
	children []*spanNode
}

// spanTree rebuilds a finished trace's tree from its preorder walk.
func spanTree(t *obs.Trace) *spanNode {
	var stack []*spanNode
	t.Walk(func(depth int, s obs.SpanSnapshot) {
		n := &spanNode{name: s.Name, start: s.Start, dur: s.Dur}
		stack = stack[:depth]
		if depth > 0 {
			p := stack[depth-1]
			p.children = append(p.children, n)
		}
		stack = append(stack, n)
	})
	return stack[0]
}

// self is the span's duration minus the part of it its children cover.
func (n *spanNode) self() time.Duration {
	iv := make([][2]time.Duration, len(n.children))
	for i, c := range n.children {
		iv[i] = [2]time.Duration{c.start, c.start + c.dur}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return n.dur - covered
}

// selfTimes sums self time per span name over the tree.
func selfTimes(n *spanNode, into map[string]time.Duration) {
	into[n.name] += n.self()
	for _, c := range n.children {
		selfTimes(c, into)
	}
}

// --- the layer chain -------------------------------------------------------

// chainInput is one benchmark instance the chain drives through every
// batch layer on each of cfgs.
type chainInput struct {
	bm        workload.Benchmark
	seed      uint64
	scale     float64
	cfgs      []arch.Config
	baselines bool // MAIN/CRIT on cfgs[0], for Figure 4 rows
}

// chainResult is what the chain computed for one input.
type chainResult struct {
	name      string
	cfgs      []string
	preds     []*core.Prediction
	simCycles []float64
	// Per config: the fastest core.Predict and Σ PredictEpoch of the
	// alternating runs, and the sim.RunHinted time, in ms; ivlRuns counts
	// the Σ PredictEpoch runs over all configs.
	predMs, ivlMs, simMs []float64
	ivlRuns              int
	main, crit           float64
	instrs               uint64
	recBytes             int64
	epochs               int
	profBytes            int
	wrongChecks          int
}

// chainWork sums the work units the ledger divides layer time by.
type chainWork struct {
	instrs, simInstrs, recBytes, epochs, intervalEpochs, profiles, profBytes float64
}

func (w *chainWork) add(in chainInput, res chainResult) {
	n := float64(len(in.cfgs))
	w.instrs += float64(res.instrs)
	w.simInstrs += float64(res.instrs) * n
	w.recBytes += float64(res.recBytes)
	w.epochs += float64(res.epochs)
	w.intervalEpochs += float64(res.epochs) * float64(res.ivlRuns)
	w.profiles++
	w.profBytes += float64(res.profBytes)
}

// timed runs fn under a span named name.
func timed(ctx context.Context, name string, fn func() error) error {
	sp := obs.Start(ctx, name)
	err := fn()
	sp.End()
	return err
}

// runChain drives each input through generation, record, decode,
// profiling, model build, interval prediction, symbolic execution,
// simulation (single and config-batched) and the profile file format, one
// public call at a time: once untraced and once with each call under its
// own span in tr. The two runs of an input follow each other, in
// alternating order from input to input, so neither mode is always the
// one that runs on a cold heap and caches. It returns both runs' results,
// the traced run's work and the two modes' summed wall times.
func runChain(tr *obs.Trace, inputs []chainInput) (plain, traced []chainResult, work chainWork, plainWall, tracedWall time.Duration, err error) {
	tctx := obs.WithTrace(context.Background(), tr)
	plain = make([]chainResult, len(inputs))
	traced = make([]chainResult, len(inputs))
	for i, in := range inputs {
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				t := time.Now()
				plain[i], err = chainOne(context.Background(), in)
				plainWall += time.Since(t)
			} else {
				t := time.Now()
				ectx, esp := obs.StartSpan(tctx, "entry")
				esp.Annotate("bench", in.bm.Name)
				traced[i], err = chainOne(ectx, in)
				esp.End()
				tracedWall += time.Since(t)
			}
			if err != nil {
				return nil, nil, work, 0, 0, fmt.Errorf("%s: %w", in.bm.Name, err)
			}
		}
		work.add(in, traced[i])
	}
	return plain, traced, work, plainWall, tracedWall, nil
}

func chainOne(ctx context.Context, in chainInput) (chainResult, error) {
	res := chainResult{name: in.bm.Name}
	for _, c := range in.cfgs {
		res.cfgs = append(res.cfgs, c.Name)
	}
	var prog *workload.Program
	timed(ctx, "workload.build", func() error { prog = in.bm.Build(in.seed, in.scale); return nil })
	timed(ctx, "workload.gen", func() error {
		buf := make([]trace.Item, 4096)
		for t := 0; t < prog.NumThreads(); t++ {
			s := prog.Thread(t)
			for n := trace.FillBatch(s, buf); n > 0; n = trace.FillBatch(s, buf) {
				for _, it := range buf[:n] {
					if !it.IsSync {
						res.instrs++
					}
				}
			}
		}
		return nil
	})
	var rec *trace.Recorded
	if err := timed(ctx, "trace.record", func() (err error) { rec, err = trace.Record(prog); return }); err != nil {
		return res, err
	}
	res.recBytes = rec.SizeBytes()
	var dec *trace.Decoded
	timed(ctx, "trace.decode", func() error { dec = trace.Decode(rec); return nil })
	var prof *profiler.Profile
	if err := timed(ctx, "profiler.run", func() (err error) { prof, err = profiler.Run(rec, profiler.Options{}); return }); err != nil {
		return res, err
	}
	var eps []*profiler.Epoch
	for _, tp := range prof.Threads {
		eps = append(eps, tp.Epochs...)
	}
	res.epochs = len(eps)
	modelBuild(ctx, eps, &in.cfgs[0])

	n := len(in.cfgs)
	res.preds = make([]*core.Prediction, n)
	res.predMs, res.ivlMs, res.simMs = make([]float64, n), make([]float64, n), make([]float64, n)
	for c := range in.cfgs {
		t, err := timePhases(ctx, prof, eps, &in.cfgs[c])
		if err != nil {
			return res, err
		}
		res.preds[c], res.predMs[c], res.ivlMs[c] = t.pred, t.predMs, t.ivlMs
		res.ivlRuns += t.runs
		res.wrongChecks += t.mismatches
	}
	if in.baselines {
		if err := timed(ctx, "core.baselines", func() (err error) {
			if res.main, err = core.PredictMain(prof, in.cfgs[0]); err != nil {
				return err
			}
			res.crit, err = core.PredictCrit(prof, in.cfgs[0])
			return err
		}); err != nil {
			return res, err
		}
	}

	hints := sim.Hints{DataLines: rec.DataLineBound()}
	res.simCycles = make([]float64, len(in.cfgs))
	for c, cfg := range in.cfgs {
		var sr *sim.Result
		t := time.Now()
		if err := timed(ctx, "sim.run", func() (err error) { sr, err = sim.RunHinted(rec, cfg, hints); return }); err != nil {
			return res, err
		}
		res.simMs[c] = ms(time.Since(t))
		res.simCycles[c] = sr.Cycles
	}
	for lo := 0; lo < len(in.cfgs); lo += batchWidth {
		group := in.cfgs[lo:min(lo+batchWidth, len(in.cfgs))]
		var batch []*sim.Result
		if err := timed(ctx, "sim.batch", func() (err error) { batch, err = sim.RunBatch(dec, group, hints); return }); err != nil {
			return res, err
		}
		for j, b := range batch {
			if b.Cycles != res.simCycles[lo+j] {
				res.wrongChecks++
			}
		}
	}

	var data []byte
	if err := timed(ctx, "profilefmt.encode", func() (err error) { data, err = profilefmt.Encode(prof, profiler.Options{}); return }); err != nil {
		return res, err
	}
	res.profBytes = len(data)
	var back *profiler.Profile
	if err := timed(ctx, "profilefmt.decode", func() (err error) { back, _, err = profilefmt.Decode(data); return }); err != nil {
		return res, err
	}
	// The decoded profile must drive a bit-identical prediction.
	if err := timed(ctx, "check.roundtrip", func() error {
		p, err := core.Predict(back, in.cfgs[0])
		if err == nil && !reflect.DeepEqual(p, res.preds[0]) {
			res.wrongChecks++
		}
		return err
	}); err != nil {
		return res, err
	}
	return res, nil
}

// phaseTimes is what timePhases measured on one config.
type phaseTimes struct {
	pred          *core.Prediction
	predMs, ivlMs float64 // fastest core.Predict and Σ PredictEpoch
	runs          int     // runs of each
	mismatches    int     // repeated predictions that differed
}

// timePhases runs phase 1 alone (Σ PredictEpoch) and the whole
// core.Predict alternately on cfg, at least symexecMinReps times and
// until symexecBudget has passed (at most symexecMaxReps times), and keeps
// the fastest of each, so their difference, phase 2, is not one noisy
// sample minus another. The collector is paused meanwhile (SetGCPercent
// waits out a cycle in progress): a cycle started by earlier work would
// otherwise slow whichever side it overlaps.
func timePhases(ctx context.Context, prof *profiler.Profile, eps []*profiler.Epoch, cfg *arch.Config) (phaseTimes, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pt := phaseTimes{predMs: math.Inf(1), ivlMs: math.Inf(1)}
	start := time.Now()
	for ; pt.runs < symexecMinReps || (pt.runs < symexecMaxReps && time.Since(start) < symexecBudget); pt.runs++ {
		t := time.Now()
		timed(ctx, "interval.epochs", func() error {
			for _, ep := range eps {
				interval.PredictEpoch(ep, cfg)
			}
			return nil
		})
		pt.ivlMs = math.Min(pt.ivlMs, ms(time.Since(t)))
		var p *core.Prediction
		t = time.Now()
		if err := timed(ctx, "core.predict", func() (err error) { p, err = core.Predict(prof, *cfg); return }); err != nil {
			return pt, err
		}
		pt.predMs = math.Min(pt.predMs, ms(time.Since(t)))
		if pt.pred == nil {
			pt.pred = p
		} else if !reflect.DeepEqual(p, pt.pred) {
			pt.mismatches++ // the same prediction must repeat exactly
		}
	}
	return pt, nil
}

// modelBuild times each analytical model's per-epoch construction on cfg:
// StatStack models of the three reuse-distance histograms, the ILP window
// analysis, the MLP window walk and the branch model's mispredictions.
func modelBuild(ctx context.Context, eps []*profiler.Epoch, cfg *arch.Config) {
	llc := make([]*statstack.Model, len(eps))
	timed(ctx, "statstack.build", func() error {
		for i, ep := range eps {
			if ep.Loads > 0 {
				statstack.New(ep.PrivateRD)
				llc[i] = statstack.New(ep.GlobalRD)
			}
			if ep.ILineAccesses > 0 {
				statstack.New(ep.InstrRD)
			}
		}
		return nil
	})
	timed(ctx, "ilp.analyze", func() error {
		for _, ep := range eps {
			if ep.Instr > 0 {
				ilp.Analyze(ep.Windows, ep.Mix, cfg)
			}
		}
		return nil
	})
	timed(ctx, "mlp.compute", func() error {
		for i, ep := range eps {
			if llc[i] == nil {
				continue
			}
			crit := llc[i].CriticalDistance(cfg.LLC.Lines())
			mlp.Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs, func(rd int64) bool {
				return rd == stats.Infinite || float64(rd) >= crit
			})
		}
		return nil
	})
	timed(ctx, "branchmodel.mispredicts", func() error {
		for _, ep := range eps {
			if ep.Instr > 0 {
				ep.Branch.Mispredicts(cfg.BPredBytes)
			}
		}
		return nil
	})
}

// tracedChain runs the chain once untraced and once traced, checks the two
// agree, and reports the chain's layer metrics, its self-time table and
// the tracing overhead. It returns the traced results and trace.
func tracedChain(r *report, inputs []chainInput) ([]chainResult, *obs.Trace, error) {
	tr := obs.New("chain")
	plain, res, work, untraced, traced, err := runChain(tr, inputs)
	tr.Finish()
	if err != nil {
		return nil, nil, err
	}
	for i := range res {
		r.Ops.Attempted++
		if res[i].wrongChecks > 0 || !reflect.DeepEqual(res[i].preds, plain[i].preds) ||
			!reflect.DeepEqual(res[i].simCycles, plain[i].simCycles) {
			r.Ops.Wrong++
		}
	}
	r.set("obs.overhead_ms", "ms", ms(traced-untraced))
	r.Detail["chain_untraced_ms"] = ms(untraced)
	r.Detail["chain_traced_ms"] = ms(traced)

	root := spanTree(tr)
	self := map[string]time.Duration{}
	selfTimes(root, self)
	table := map[string]float64{}
	var layers time.Duration
	for name, d := range self {
		table[name] = ms(d)
		if name != root.name && name != "entry" {
			layers += d
		}
	}
	r.Detail["self_ms"] = table
	cov := float64(layers) / float64(traced)
	r.Detail["chain_coverage"] = cov
	r.check("layer-sum-chain", cov >= minCoverage,
		"layer self times cover %.2f%% of the traced chain's %.0f ms wall (tolerance: at least %.0f%%)",
		100*cov, ms(traced), 100*minCoverage)

	per := func(name string, unit float64, scale float64) float64 {
		if unit == 0 {
			return 0
		}
		return float64(self[name]) / scale / unit
	}
	r.set("workload.gen_ns_per_instr", "ns/instr", per("workload.gen", work.instrs, 1))
	r.set("trace.record_ns_per_instr", "ns/instr", per("trace.record", work.instrs, 1))
	r.set("trace.bytes_per_instr", "B/instr", work.recBytes/work.instrs)
	r.set("trace.decode_ns_per_instr", "ns/instr", per("trace.decode", work.instrs, 1))
	r.set("profiler.ns_per_instr", "ns/instr", per("profiler.run", work.instrs, 1))
	r.set("profiler.epochs", "count", work.epochs)
	r.set("statstack.build_us_per_epoch", "us", per("statstack.build", work.epochs, 1e3))
	r.set("ilp.analyze_us_per_epoch", "us", per("ilp.analyze", work.epochs, 1e3))
	r.set("mlp.compute_us_per_epoch", "us", per("mlp.compute", work.epochs, 1e3))
	r.set("branchmodel.mispredicts_us_per_epoch", "us", per("branchmodel.mispredicts", work.epochs, 1e3))
	r.set("interval.epoch_us", "us", per("interval.epochs", work.intervalEpochs, 1e3))
	r.set("sim.ns_per_instr", "ns/instr", per("sim.run", work.simInstrs, 1))
	r.set("sim.batch_ns_per_instr", "ns/instr", per("sim.batch", work.simInstrs, 1))
	r.set("profilefmt.encode_ms", "ms", per("profilefmt.encode", work.profiles, 1e6))
	r.set("profilefmt.decode_ms", "ms", per("profilefmt.decode", work.profiles, 1e6))
	r.set("profilefmt.bytes", "B", work.profBytes/work.profiles)

	// Per-entry rows: prediction, its symbolic-execution part and
	// simulation, per config, side by side.
	rows := map[string]map[string]float64{}
	negative := map[string]float64{}
	for _, c := range res {
		var pred, sym, simT float64
		for k := range c.predMs {
			pred += c.predMs[k]
			sym += c.predMs[k] - c.ivlMs[k]
			simT += c.simMs[k]
		}
		n := float64(len(c.predMs))
		rows[c.name] = map[string]float64{"predict_ms": pred / n, "symexec_ms": sym / n, "sim_ms": simT / n}
		if sym < 0 {
			negative[c.name] = sym / n
		}
	}
	r.Detail["entries"] = rows
	// Phase 2 of an entry with few synchronization events costs less than
	// the timing noise of phase 1, and its difference can read below
	// zero. Such rows are reported as measured and named here.
	r.Detail["symexec_below_resolution"] = negative
	for _, e := range dseEntries {
		row, ok := rows[e]
		if !ok {
			return nil, nil, fmt.Errorf("chain has no %s entry", e)
		}
		r.set("core.predict_ms."+e, "ms", row["predict_ms"])
		r.set("core.symexec_ms."+e, "ms", row["symexec_ms"])
		r.set("sim.ms."+e, "ms", row["sim_ms"])
	}
	return res, tr, nil
}

// writeTrace writes the traces as one Chrome trace file and checks that it
// parses back as a non-empty trace_event document.
func writeTrace(rc *runCtx, r *report, traces []*obs.Trace) error {
	data, err := obs.MarshalTraceEvents(traces)
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.trace.json", rc.outDir, r.Workload, rc.seed)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	var back obs.TraceEventFile
	err = json.Unmarshal(data, &back)
	r.check("chrome-trace", err == nil && len(back.TraceEvents) > 0,
		"%s holds %d events", path, len(back.TraceEvents))
	r.Trace = path
	return nil
}

// --- traced workloads --------------------------------------------------------

// extraEntry is the named registry entry at its pinned scale.
func extraEntry(name string, seed uint64, cfgs []arch.Config) (chainInput, error) {
	reg, err := loadRegistry()
	if err != nil {
		return chainInput{}, err
	}
	e, ok := reg.ByName(name)
	if !ok {
		return chainInput{}, fmt.Errorf("registry has no entry %q", name)
	}
	bm, err := e.Benchmark()
	if err != nil {
		return chainInput{}, err
	}
	return chainInput{bm: bm, seed: seed, scale: e.Scale, cfgs: cfgs}, nil
}

// traceFig4 replays Figure 4's chain per benchmark (Build, Record,
// profile, simulate, predict with both baselines) and checks that its rows
// equal experiments.Figure4's bit for bit. The fourth dse entry rides
// along so every per-entry row exists; the serving leg then serves the
// Figure 4 predictions from a fresh unbounded server, where the layer
// sums are asserted.
func traceFig4(rc *runCtx, r *report) error {
	gc := startGC()
	seed := passSeed(rc.seed, 0)
	ref, err := experiments.Figure4(experiments.Config{Scale: fig4Scale, Seed: seed, Session: newSession(rc.workers)})
	if err != nil {
		return err
	}
	base := arch.Base()
	var inputs []chainInput
	for _, bm := range workload.Suite() {
		inputs = append(inputs, chainInput{bm: bm, seed: seed, scale: fig4Scale, cfgs: []arch.Config{base}, baselines: true})
	}
	extra, err := extraEntry("skewed-sharing", seed, []arch.Config{base})
	if err != nil {
		return err
	}
	res, tr, err := tracedChain(r, append(inputs, extra))
	if err != nil {
		return err
	}
	rowOf := func(c chainResult, kind workload.SuiteKind) experiments.Figure4Row {
		sc := c.simCycles[0]
		return experiments.Figure4Row{Name: c.name, Kind: kind,
			MAIN: signedError(c.main, sc), CRIT: signedError(c.crit, sc),
			RPPM: signedError(c.preds[0].Cycles, sc), SimCy: sc}
	}
	// A shadowed name's rows share one program, whichever instance
	// Figure 4's concurrent fan-out reached first: such a row must equal
	// the chain row of one of the instances declaring the name.
	byName := map[string]chainResult{}
	mismatch := 0
	var shadowedBy []string
	for i, row := range ref.Rows {
		r.Ops.Attempted++
		match := rowOf(res[i], row.Kind) == row
		for j, in := range inputs {
			if !match && j != i && in.bm.Name == row.Name && rowOf(res[j], row.Kind) == row {
				match = true
				shadowedBy = append(shadowedBy, fmt.Sprintf("row %d (%s) carries instance %d", i, row.Name, j))
			}
		}
		if !match {
			mismatch++
			r.Ops.Wrong++
		}
		if _, ok := byName[row.Name]; !ok {
			byName[row.Name] = res[i]
		}
	}
	r.Detail["shadowed_rows"] = shadowedBy
	r.check("fig4-chain-rows", mismatch == 0, "%d of %d chain rows differ from experiments.Figure4", mismatch, len(ref.Rows))

	var keys []key
	for name := range byName {
		keys = append(keys, key{Bench: name, Config: base.Name, Seed: seed, Scale: fig4Scale})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Bench < keys[j].Bench })
	legTr, err := freshLeg(rc, r, keys, byName)
	if err != nil {
		return err
	}
	finishGC(r, gc)
	return writeTrace(rc, r, []*obs.Trace{tr, legTr})
}

// traceDSE drives the chain over the dse entries on all sixteen configs,
// then measures the serving layers on a budgeted server over a pre-filled
// trace directory.
func traceDSE(rc *runCtx, r *report) error {
	gc := startGC()
	seed := passSeed(rc.seed, 0)
	items, err := dseJob(seed)
	if err != nil {
		return err
	}
	cfgs := arch.SweepSpace(dseConfigs)
	var inputs []chainInput
	for _, it := range items {
		inputs = append(inputs, chainInput{bm: it.bm, seed: seed, scale: it.scale, cfgs: cfgs})
	}
	_, tr, err := tracedChain(r, inputs)
	if err != nil {
		return err
	}
	legTr, err := churnLeg(rc, r)
	if err != nil {
		return err
	}
	finishGC(r, gc)
	return writeTrace(rc, r, []*obs.Trace{tr, legTr})
}

func finishGC(r *report, gc gcWindow) {
	cycles, pause := gc.End()
	r.set("runtime.gc_cycles", "count", cycles)
	r.set("runtime.gc_pause_ms", "ms", pause)
}

// freshLeg starts an unbounded server, requests every key cold, checks
// each served prediction against the chain's core.Predict for the same
// key and config, and measures the serving layers on the now warm server,
// asserting the layer sums.
func freshLeg(rc *runCtx, r *report, keys []key, chain map[string]chainResult) (*obs.Trace, error) {
	s, err := startServer(server.Config{Workers: rc.workers})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	c := newClient(s.base, rc.workers)
	c.closedLoop(keys, nil, identity(len(keys)), rc.workers, &r.Ops)
	c.Close()
	want, err := expectedBodies(s.srv.Session(), keys)
	if err != nil {
		return nil, err
	}
	mismatch := 0
	for i, k := range keys {
		var resp struct{ Cycles float64 }
		if err := json.Unmarshal(want[i], &resp); err != nil {
			return nil, err
		}
		cr := chain[k.Bench]
		j := slices.Index(cr.cfgs, k.Config)
		r.Ops.Attempted++
		if j < 0 || cr.preds[j].Cycles != resp.Cycles {
			mismatch++
			r.Ops.Wrong++
		}
	}
	r.check("served-equals-chain", mismatch == 0,
		"%d of %d served predictions differ from the chain's core.Predict", mismatch, len(keys))
	return serveLeg(rc, r, s, keys, want, hotRate, legHot, true)
}

// churnLeg sets up a budgeted server (a pre-filled trace directory and a
// budget of a fifth of the resident set) and measures the serving layers
// on it, so the eviction path, the .rpp reloads and the store counters
// are in the ledger. Its decomposition uses the single hottest key, which
// stays resident under the budget. The leg fails its check when the
// budget forced no eviction or demotion, or nothing was reloaded from the
// trace directory: the ledger would then describe a fully resident cache.
func churnLeg(rc *runCtx, r *report) (*obs.Trace, error) {
	env, err := setupChurn(rc, r)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	tr, err := serveLeg(rc, r, env.s, env.keys, env.want, churnRate, 1, false)
	if err != nil {
		return nil, err
	}
	st := env.s.srv.Session().Stats()
	r.check("churn-evicts", st.Evictions+st.Profiles.Demotions > 0 && st.Profiles.Loads > 0,
		"the budget forced %d evictions and %d demotions; %d profiles were reloaded from the trace directory",
		st.Evictions, st.Profiles.Demotions, st.Profiles.Loads)
	return tr, nil
}
