package main

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Reduced forms of the workloads: the same code paths on inputs small enough
// for the test suite.
var (
	smallSolver = solverSpec{name: "milp-search", sizes: []int{5, 6}, perCell: 1, maxNodes: 40, deadline: 30 * time.Second}
	smallChurn  = servingSpec{name: "serve-churn", nodes: 1, hot: 6, relabelings: 2, cold: 16, minTables: 4, maxTables: 6, maxEntries: 8, persist: true, blockRequests: 60}
	smallRing   = servingSpec{name: "ring-hit", nodes: 3, hot: 6, relabelings: 2, minTables: 4, maxTables: 6, blockRequests: 60}
)

func testEnv(t *testing.T, seed int64) *runEnv {
	return &runEnv{seed: seed, seconds: 50 * time.Millisecond, outDir: t.TempDir()}
}

func TestSameSeedSameOps(t *testing.T) {
	ctx := context.Background()
	if !reflect.DeepEqual(blockOrder(3, 2, 18), blockOrder(3, 2, 18)) {
		t.Error("the same seed and block must give the same op order")
	}
	if reflect.DeepEqual(blockOrder(3, 2, 18), blockOrder(4, 2, 18)) {
		t.Error("another seed must give another op order")
	}
	if !reflect.DeepEqual(milpSearch.pool(), milpSearch.pool()) || len(milpSearch.pool()) != 18 || len(milpRoot.pool()) != 9 {
		t.Errorf("pools: %d and %d instances, want 18 and 9", len(milpSearch.pool()), len(milpRoot.pool()))
	}
	for _, k := range append(milpSearch.pool(), milpRoot.pool()...) {
		if stallers[k] {
			t.Errorf("pool contains the known staller %v", k)
		}
	}

	bodies := func(seed int64) []byte {
		hot, cold, err := smallChurn.inputs(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		for _, variants := range hot {
			for _, sv := range variants {
				all.Write(sv.body)
			}
		}
		for _, sv := range cold {
			all.Write(sv.body)
		}
		return all.Bytes()
	}
	if !bytes.Equal(bodies(5), bodies(5)) {
		t.Error("the same seed must give byte-identical requests")
	}
	if bytes.Equal(bodies(5), bodies(6)) {
		t.Error("another seed must give other requests")
	}
}

func TestRelabelKeepsTheQuery(t *testing.T) {
	ctx := context.Background()
	hot, _, err := smallRing.inputs(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, variants := range hot {
		for v, sv := range variants[1:] {
			ref, err := referenceFor(ctx, sv.q)
			if err != nil {
				t.Fatal(err)
			}
			if diff := ref.cost - variants[0].ref.cost; diff > relTol*ref.cost || -diff > relTol*ref.cost {
				t.Errorf("hot query %d labeling %d: optimum %g, original has %g", i, v+1, ref.cost, variants[0].ref.cost)
			}
		}
	}
}

// TestSolverCountsRepeat runs the reduced solver workload twice, untraced and
// traced, and requires every count to repeat exactly: the solves are single
// threaded and capped by nodes, never by time.
func TestSolverCountsRepeat(t *testing.T) {
	ctx := context.Background()
	var runs, traces [2]map[string]float64
	for i := range runs {
		out, err := smallSolver.run(ctx, testEnv(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("%d of %d ops failed: %v", out.failed, out.attempted, out.notes)
		}
		runs[i] = out.values
		if out, err = smallSolver.trace(ctx, testEnv(t, 1)); err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("traced: %d of %d ops failed: %v", out.failed, out.attempted, out.notes)
		}
		traces[i] = out.values
	}
	for _, name := range []string{"bound_quality", "plan_cost_ratio", "ok_share"} {
		if runs[0][name] != runs[1][name] {
			t.Errorf("%s differs between two runs: %v and %v", name, runs[0][name], runs[1][name])
		}
	}
	for _, name := range []string{"bb.nodes", "simplex.root_iters", "bb.iters_per_node", "bb.root_bound_quality", "core.vars", "simplex.warm_iters"} {
		if traces[0][name] != traces[1][name] || traces[0][name] == 0 {
			t.Errorf("%s must be non-zero and repeat: %v and %v", name, traces[0][name], traces[1][name])
		}
	}
	if m := traces[0]["trace.replica_match_share"]; m != 1 {
		t.Errorf("the staged replay reproduced the nodes and bound of %.0f%% of the ops, want all", 100*m)
	}
}

// TestMetricNamesMatchSpec checks BENCHMARK.json against what the workloads
// measure: every name is made of letters, digits, '_', '.' and '-', every
// measured metric is listed, and every listed metric is measured by some
// workload.
func TestMetricNamesMatchSpec(t *testing.T) {
	ctx := context.Background()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	listed := map[string]map[string]bool{"end_to_end": {}, "per_layer": {}}
	for kind, metrics := range map[string][]metricSpec{"end_to_end": spec.EndToEnd, "per_layer": spec.PerLayer} {
		for _, m := range metrics {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %q with unit %q: bad name or unit", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, m.Name, m.Better)
			}
			if listed[kind][m.Name] {
				t.Errorf("%s metric %q is listed twice", kind, m.Name)
			}
			listed[kind][m.Name] = true
			if kind == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("end-to-end metric %q: bound %v is outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	if !listed["end_to_end"]["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside [1, 60]", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or a why that is not one line of at most 200 characters", w.Name)
		}
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !reflect.DeepEqual(names, defined) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program defines %v", names, defined)
	}

	measured := map[string]map[string]bool{"end_to_end": {}, "per_layer": {}}
	collect := func(kind string, run func(context.Context, *runEnv) (*outcome, error)) {
		t.Helper()
		out, err := run(ctx, testEnv(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Fatalf("%d of %d ops failed: %v", out.failed, out.attempted, out.notes)
		}
		for k := range out.values {
			measured[kind][k] = true
		}
	}
	collect("end_to_end", smallSolver.run)
	collect("end_to_end", smallChurn.run)
	collect("per_layer", smallSolver.trace)
	collect("per_layer", smallChurn.trace)
	collect("per_layer", smallRing.trace)
	for kind := range listed {
		for k := range measured[kind] {
			if !listed[kind][k] {
				t.Errorf("%s metric %q is measured but not listed in BENCHMARK.json", kind, k)
			}
		}
		for k := range listed[kind] {
			if !measured[kind][k] {
				t.Errorf("%s metric %q is listed in BENCHMARK.json but no workload measures it", kind, k)
			}
		}
	}
}
