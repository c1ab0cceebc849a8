package difftest

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestMILPDeterministicAcrossWorkerCounts solves the same queries with 1,
// 2, and 8 branch-and-bound workers and checks the answers agree.
//
// What must be identical: the proven-optimal objective, the exact plan
// cost, and the final bound (both equal the objective at optimality
// within the gap tolerance). What may legitimately differ: the plan
// itself, when multiple orders tie on objective — with several workers
// the race to the last incumbent is timing-dependent, so we assert
// cost-equality of plans rather than order-equality. With a single
// worker the search is fully deterministic, and the plan must be
// bit-identical run to run.
func TestMILPDeterministicAcrossWorkerCounts(t *testing.T) {
	queries := []*joinorder.Query{
		workload.Generate(workload.Chain, 8, 42, workload.Config{}),
		workload.Generate(workload.Cycle, 8, 43, workload.Config{}),
		workload.Generate(workload.Star, 8, 44, workload.Config{}),
		workload.Generate(workload.Clique, 7, 45, workload.Config{}),
	}
	const gapTol = 1e-6
	for qi, q := range queries {
		var base *joinorder.Result
		for _, threads := range []int{1, 2, 8} {
			opts := joinorder.Options{
				Strategy: "milp",
				Budget:   joinorder.Budget{Threads: threads, TimeLimit: 2 * time.Minute},
				Seed:     7,
			}
			res, err := joinorder.Optimize(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("query %d threads %d: %v", qi, threads, err)
			}
			if res.Status != joinorder.StatusOptimal {
				t.Fatalf("query %d threads %d: status %v, want optimal", qi, threads, res.Status)
			}
			if res.Gap > gapTol {
				t.Errorf("query %d threads %d: gap %g above tolerance", qi, threads, res.Gap)
			}
			if base == nil {
				base = res
				continue
			}
			if math.Abs(res.Objective-base.Objective) > gapTol*math.Max(1, math.Abs(base.Objective)) {
				t.Errorf("query %d threads %d: objective %g != single-worker %g",
					qi, threads, res.Objective, base.Objective)
			}
			if math.Abs(res.Cost-base.Cost) > 1e-6*math.Max(1, base.Cost) {
				t.Errorf("query %d threads %d: plan cost %g != single-worker %g",
					qi, threads, res.Cost, base.Cost)
			}
			relTol := gapTol * math.Max(1, math.Abs(base.Objective))
			if res.Bound < base.Objective-relTol || res.Bound > res.Objective+relTol {
				t.Errorf("query %d threads %d: bound %g inconsistent with optimal objective %g",
					qi, threads, res.Bound, res.Objective)
			}
		}
	}
}

// TestMILPSingleWorkerRunsAreIdentical re-solves with one worker and
// checks the full plan — not just its cost — reproduces exactly. The
// query uses moderate cardinalities so the search provably finishes:
// bounds of a run stopped by wall clock depend on where the clock caught
// the search, which is timing, not nondeterminism.
func TestMILPSingleWorkerRunsAreIdentical(t *testing.T) {
	q := workload.Generate(workload.Cycle, 7, 7, workload.Config{MinLogCard: 1, MaxLogCard: 3})
	opts := joinorder.Options{Strategy: "milp", Budget: joinorder.Budget{Threads: 1, TimeLimit: 2 * time.Minute}, Seed: 3}

	var first *joinorder.Result
	for run := 0; run < 3; run++ {
		res, err := joinorder.Optimize(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Status != joinorder.StatusOptimal {
			t.Fatalf("run %d: status %v, want optimal (query meant to be easy)", run, res.Status)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Plan.Order, first.Plan.Order) {
			t.Fatalf("run %d: plan %v != first run %v with identical seed and one worker",
				run, res.Plan.Order, first.Plan.Order)
		}
		if res.Objective != first.Objective || res.Bound != first.Bound {
			t.Fatalf("run %d: objective/bound (%g, %g) != (%g, %g)",
				run, res.Objective, res.Bound, first.Objective, first.Bound)
		}
	}
}
