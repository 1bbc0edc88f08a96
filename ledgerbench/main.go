// Command ledgerbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produces, and prints
// the end-to-end metrics by name, unit and better direction. With -trace 1
// it instead runs the workload's traced pass and prints the per-layer
// ledger. The last line of standard output is always one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The full record (environment block, per-entry rows, load-generator phase
// accounting, layer self times, checks) is written next to the Chrome
// trace under -out. Run it from the repository root:
//
//	bash ledgerbench/run.sh --workload fig4 --seed 1 --seconds 40 --trace 0
//
// See ledgerbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec describes a metric the benchmark reports.
type spec struct {
	Name, Unit, Better string
}

// endToEnd is every end-to-end metric on the result line, reported with
// tracing off on every workload. README.md gives each one's definition
// per workload.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"predict_ms_per_config", "ms", "lower"},
	{"simulate_ms_per_config", "ms", "lower"},
	{"predict_speedup", "x", "higher"},
	{"rppm_err_mean_pct", "%", "lower"},
	{"rppm_err_max_pct", "%", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// report is the full result record of one run.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	Seconds  float64            `json:"seconds"`
	Env      envBlock           `json:"env"`
	Metrics  map[string]metric  `json:"metrics"`
	Extra    map[string]float64 `json:"extra,omitempty"` // record-only figures (error_rate)
	Ops      opCount            `json:"ops"`
	Checks   []check            `json:"checks"`
	Detail   map[string]any     `json:"detail,omitempty"`
	Trace    string             `json:"trace_file,omitempty"`
}

// opCount counts the operations a run attempted and how they ended. Wrong
// counts completed operations whose output failed a correctness check;
// refused counts requests the server turned away (429).
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
	Wrong     int `json:"wrong"`
}

func (o *opCount) add(p opCount) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Refused += p.Refused
	o.Wrong += p.Wrong
}

// bad is every operation counted against error_rate.
func (o opCount) bad() int { return o.Failed + o.Refused + o.Wrong }

// check is one named correctness or consistency check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runCtx carries the run's parameters to a workload.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	workers int
	outDir  string
}

type workloadFunc func(rc *runCtx, r *report) error

var workloads = map[string]struct{ plain, traced workloadFunc }{
	"fig4": {runFig4, traceFig4},
	"dse":  {runDSE, traceDSE},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig4 or dse")
	seed := fs.Uint64("seed", 1, "input seed (workload generation, arrivals, key popularity)")
	seconds := fs.Float64("seconds", 40, "measured time per run")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer ledger")
	out := fs.String("out", filepath.Join(".bench_build", "ledger"), "directory for the full record and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: ledgerbench --workload fig4|dse --seed N>0 --seconds S --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %v\n", err)
		return 1
	}
	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		workers: runtime.GOMAXPROCS(0), outDir: *out}
	r := &report{Workload: *name, Seed: *seed, Traced: *traced == 1, Seconds: *seconds,
		Env: collectEnv(*seed), Metrics: map[string]metric{}, Extra: map[string]float64{},
		Detail: map[string]any{}}
	fn := w.plain
	if r.Traced {
		fn = w.traced
	}
	if err := fn(rc, r); err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if r.Traced {
		want = perLayer()
		r.set("env.calib_ns_per_op", "ns", r.Env.CalibNsPerOp)
	}
	for _, s := range want {
		m, ok := r.Metrics[s.Name]
		if !ok {
			fmt.Fprintf(stderr, "ledgerbench: %s: metric %s was not measured\n", *name, s.Name)
			return 1
		}
		if m.Unit != s.Unit {
			fmt.Fprintf(stderr, "ledgerbench: %s: metric %s has unit %s, want %s\n", *name, s.Name, m.Unit, s.Unit)
			return 1
		}
	}
	if r.Ops.Attempted > 0 {
		r.Extra["error_rate"] = float64(r.Ops.bad()) / float64(r.Ops.Attempted)
	}
	correct := r.Ops.Attempted > 0 && r.Ops.Wrong == 0
	for _, c := range r.Checks {
		correct = correct && c.OK
	}

	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced))
	rec, err := json.MarshalIndent(r, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".json", rec, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: write record: %v\n", err)
		return 1
	}
	printTable(stdout, r, want)
	fmt.Fprintf(stdout, "record: %s.json\n", base)

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.Ops.Attempted, r.Ops.bad(), map[string]metric{}}
	for _, s := range want {
		final.Metrics[s.Name] = r.Metrics[s.Name]
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printTable prints every reported metric with its unit and better
// direction, then the checks and the operation counts.
func printTable(w io.Writer, r *report, want []spec) {
	fmt.Fprintf(w, "ledgerbench %s seed=%d traced=%v go=%s gomaxprocs=%d nproc=%d commit=%s\n",
		r.Workload, r.Seed, r.Traced, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.Commit)
	for _, s := range want {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "  %-40s %14.6g %-9s %s is better\n", s.Name, m.Value, m.Unit, s.Better)
	}
	shown := map[string]bool{}
	for _, s := range want {
		shown[s.Name] = true
	}
	var rest []string
	for k := range r.Metrics {
		if !shown[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-40s %14.6g %-9s (record only)\n", k, m.Value, m.Unit)
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  %-40s %14.6g (record only)\n", k, r.Extra[k])
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-34s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d refused=%d wrong=%d\n",
		r.Ops.Attempted, r.Ops.Failed, r.Ops.Refused, r.Ops.Wrong)
}
