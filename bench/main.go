// Command bench is the repository's benchmark: five workloads over the MILP
// solver stack and the serving path, eight end-to-end metrics each, and a
// traced pass that times every layer from outside. bench/README.md explains
// the workloads, the metrics and what is normalised; BENCHMARK.json at the
// repository root is the contract the driver checks this program against.
//
// The driver runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload every
// workload is run, untraced and then traced; with --selfcheck every
// workload is run four times and the first pair is compared with the
// second against the bounds in BENCHMARK.json.
package main

import (
	"context"
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

// A run sets up at least minSetupRepeats times, and again until
// setupBudget is spent or maxSetupRepeats is reached: a set-up of a few
// milliseconds needs more repeats for a steady median than one of a second.
const (
	minSetupRepeats = 3
	maxSetupRepeats = 25
	setupBudget     = time.Second
)

// runEnv is what one run of one workload is given.
type runEnv struct {
	seed    int64
	seconds time.Duration
	// outDir receives trace files and holds the run's temporary files.
	outDir string
}

// outcome is what one run of one workload measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// notes name each failed op and anything else a reader of the run's
	// output should see.
	notes []string
}

// workloadDef binds a workload's name to its untraced and traced runs.
type workloadDef struct {
	name string
	// run measures the end-to-end metrics with tracing off; trace measures
	// the per-layer metrics.
	run, trace func(context.Context, *runEnv) (*outcome, error)
}

var workloads = []workloadDef{
	{milpSearch.name, milpSearch.run, milpSearch.trace},
	{milpRoot.name, milpRoot.run, milpRoot.trace},
	{serveHit.name, serveHit.run, serveHit.trace},
	{serveChurn.name, serveChurn.run, serveChurn.trace},
	{ringHit.name, ringHit.run, ringHit.trace},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// medianSetup runs build repeatedly and returns the median of its times in
// seconds at reference speed: every build is bracketed by readings of cal.
// discard, when non-nil, tears down what the previous build made before the
// next one starts; the last build is kept.
func medianSetup(cal *calibrator, build func() error, discard func()) (float64, error) {
	var secs []float64
	start := time.Now()
	before := cal.read()
	for i := 0; i < minSetupRepeats || (i < maxSetupRepeats && time.Since(start) < setupBudget); i++ {
		if i > 0 && discard != nil {
			discard()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		sec := time.Since(t0).Seconds()
		after := cal.read()
		secs = append(secs, sec*bracket{before, after}.factor())
		before = after
	}
	return median(secs), nil
}

// reportedMetric is one metric as the driver reads it.
type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a single run prints as its last line.
type report struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`
}

// runOne runs one workload once and shapes the outcome to the metric list
// of its mode: every end-to-end metric untraced, every per-layer metric
// traced. A layer the workload bypasses reports 0.
func runOne(ctx context.Context, w workloadDef, env *runEnv, spec *benchSpec, traced bool) (*report, *outcome, error) {
	fn, specs := w.run, spec.EndToEnd
	if traced {
		fn, specs = w.trace, spec.PerLayer
	}
	out, err := fn(ctx, env)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	known := map[string]bool{}
	rep := &report{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]reportedMetric{},
	}
	for _, m := range specs {
		v, measured := out.values[m.Name]
		if !measured && !traced {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %q was not measured", w.name, m.Name)
		}
		known[m.Name] = true
		rep.Metrics[m.Name] = reportedMetric{Value: v, Unit: m.Unit}
	}
	for name := range out.values {
		if !known[name] {
			return nil, nil, fmt.Errorf("%s: measured %q, which BENCHMARK.json does not list", w.name, name)
		}
	}
	return rep, out, nil
}

// printReport writes the metrics by name with their units, then the notes.
func printReport(w io.Writer, title string, rep *report, out *outcome) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", title, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, note := range out.notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed      = flag.Int64("seed", 1, "seed of the op order and the serving inputs")
		seconds   = flag.Int("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		selfcheck = flag.Bool("selfcheck", false, "run every workload A,B,A,B and compare the pairs against the bounds")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, trace files and temporary files")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *selfcheck, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds, trace int, selfcheck bool, outDir string) error {
	// Client and server share the box in the serving workloads; more than
	// two cores would let a bigger machine hide a serial hit path.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	env := &runEnv{seed: seed, seconds: time.Duration(seconds) * time.Second, outDir: outDir}
	ctx := context.Background()

	switch {
	case selfcheck:
		return runSelfcheck(ctx, env, spec)
	case workload == "":
		return runAll(ctx, env, spec)
	}
	w, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	rep, out, err := runOne(ctx, w, env, spec, trace == 1)
	if err != nil {
		return err
	}
	printReport(os.Stdout, fmt.Sprintf("%s seed %d trace %d", w.name, seed, trace), rep, out)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload untraced, then traced, prints every metric and
// stores the reports in outDir/result.json.
func runAll(ctx context.Context, env *runEnv, spec *benchSpec) error {
	results := map[string]map[string]*report{"end_to_end": {}, "per_layer": {}}
	for _, mode := range []struct {
		key    string
		traced bool
	}{{"end_to_end", false}, {"per_layer", true}} {
		for _, w := range workloads {
			rep, out, err := runOne(ctx, w, env, spec, mode.traced)
			if err != nil {
				return err
			}
			printReport(os.Stdout, w.name+" "+mode.key, rep, out)
			results[mode.key][w.name] = rep
		}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(env.outDir, "result.json"), data, 0o644)
}
