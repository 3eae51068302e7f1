// Command perfbench is the repository benchmark. It runs one workload per
// invocation and prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Workloads:
//
//	stair_k1   SlopeStaircase(60,66), paper-faithful serial elections (k=1)
//	stair_k16  the same surface with core.WithParallelMoves(16)
//	svc_mix    an in-process sbgate in front of two sbserver replicas,
//	           driven by a seeded open loop and then a closed loop
//
// With --trace 0 the workload is timed with no instrumentation and the
// end-to-end metrics are reported. With --trace 1 the public entry points
// of every layer are wrapped from this package (enginetrace.go,
// httptrace.go) and the per-layer metrics are reported; the spans are
// written to <out>/trace/<workload>-seed<n>.json when the run ends.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload stair_k1 --seed 1 --seconds 30 --trace 0
//
// METRICS.md lists every metric with its unit, direction, the layer it
// belongs to and the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// deadline bounds one invocation: every workload stops measuring at
// --seconds, and this guards the whole process (set-up, measurement and
// verification) well inside the three minutes a run may take.
const deadline = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted int
	failed    int
	problems  []string          // correctness violations, one line each
	metrics   map[string]metric // end-to-end (trace 0) or per-layer (trace 1)
	samples   map[string]int    // sample count behind each metric, for the table
	spans     any               // trace 1 only: written to the trace file
	infos     map[string]metric // raw timings and host factors (calib.go); printed, not gated
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}, infos: map[string]metric{}}
}

// info records an informational figure.
func (r *report) info(name, unit string, v float64) {
	r.infos[name] = metric{Value: v, Unit: unit}
}

// set records a metric and the number of samples it was computed from.
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail records a correctness violation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// endToEnd names the metrics every untraced run reports, in
// BENCHMARK.json order; a traced run reports layerMetrics instead.
var endToEnd = []string{"run_s", "alloc_mb", "rounds", "msgs_per_move", "p50_ms", "p99_ms",
	"first_event_p99_ms", "sat_rps", "setup_s"}

var workloads = map[string]func(context.Context, options) (*report, error){
	"stair_k1":  func(ctx context.Context, o options) (*report, error) { return runStair(ctx, o, 1) },
	"stair_k16": func(ctx context.Context, o options) (*report, error) { return runStair(ctx, o, 16) },
	"svc_mix":   runSvc,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "stair_k1, stair_k16 or svc_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 wraps every layer and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the result and trace files")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			o.workload, o.seconds, trace)
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	meta := collectMeta(o)
	fmt.Printf("meta %s\n", mustJSON(meta))
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if o.trace {
		want = nil
		for _, m := range layerMetrics {
			want = append(want, m.name)
		}
	}
	if len(rep.metrics) != len(want) {
		rep.problems = append(rep.problems, fmt.Sprintf("reported %d metrics, want %d", len(rep.metrics), len(want)))
	}
	for _, name := range want {
		if _, ok := rep.metrics[name]; !ok {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s not reported", name))
		}
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is %v", name, m.Value))
			rep.metrics[name] = metric{Value: 0, Unit: m.Unit} // JSON has no NaN or Inf
		}
	}
	printTable(o, rep)
	if err := writeResult(o, meta, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	correct := rep.failed == 0 && len(rep.problems) == 0
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}
	fmt.Println(mustJSON(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}))
	if !correct {
		os.Exit(1)
	}
}

// printTable prints every metric by name with its unit and sample count.
func printTable(o options, rep *report) {
	fmt.Printf("%-40s %14s  %-6s %s\n", o.workload, "value", "unit", "samples")
	for _, name := range sortedKeys(rep.metrics) {
		m := rep.metrics[name]
		fmt.Printf("%-40s %14.6g  %-6s %d\n", name, m.Value, m.Unit, rep.samples[name])
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-40s %14.6g  %-6s %d\n", "failed_frac", frac, "1", rep.attempted)
	for _, name := range sortedKeys(rep.infos) {
		m := rep.infos[name]
		fmt.Printf("%-40s %14.6g  %-6s (informational)\n", name, m.Value, m.Unit)
	}
}

// writeResult stores the metadata, metrics and (traced runs) spans.
func writeResult(o options, meta map[string]any, rep *report) error {
	dir := filepath.Join(o.out, "results")
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	doc := map[string]any{"meta": meta, "attempted": rep.attempted, "failed": rep.failed,
		"problems": rep.problems, "metrics": rep.metrics, "samples": rep.samples, "info": rep.infos}
	if err := writeJSON(filepath.Join(dir, name), doc); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), rep.spans)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are marshalled
	}
	return string(b)
}
