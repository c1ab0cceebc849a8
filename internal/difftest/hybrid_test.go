package difftest

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestHybridAgainstBushyOptimum cross-checks the hybrid decomposition
// strategy against the exact bushy optimum on every small matrix query and
// its filtered twin:
//
//  1. the hybrid's reported lower bound never exceeds the bushy optimum
//     (the bound is valid over the full bushy plan space), nor the
//     exhaustive left-deep optimum where that can be enumerated, and
//  2. the hybrid's stitched plan never costs less than the bushy optimum
//     (no plan does — any violation means a costing bug in the stitcher).
//
// Both the exact single-partition path (default cap, n below it) and the
// decomposed path (cap forced to 4 so every query is cut, stitched, and
// seam-optimized) are exercised.
func TestHybridAgainstBushyOptimum(t *testing.T) {
	const tol = 1 + 1e-9
	forEachQuery(t, func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query) {
		for _, v := range withFilteredTwin(q) {
			bushy, err := joinorder.Optimize(context.Background(), v.q, joinorder.Options{Strategy: "dp-bushy"})
			if err != nil {
				t.Fatalf("%v %s n=%d seed=%d: dp-bushy: %v", shape, v.name, n, seed, err)
			}
			exhaustive := math.Inf(1)
			if n <= 8 {
				if _, exhaustive, err = dp.ExhaustiveLeftDeep(v.q, cost.CoutSpec()); err != nil {
					t.Fatalf("%v %s n=%d seed=%d: exhaustive: %v", shape, v.name, n, seed, err)
				}
			}
			for name, opts := range map[string]joinorder.Options{
				"exact path": {Strategy: "hybrid"},
				"decomposed": {Strategy: "hybrid", PartitionCap: 4, Budget: joinorder.Budget{TimeLimit: 10 * time.Second}},
			} {
				res, err := joinorder.Optimize(context.Background(), v.q, opts)
				if err != nil {
					t.Fatalf("%v %s n=%d seed=%d: hybrid (%s): %v", shape, v.name, n, seed, name, err)
				}
				if err := res.Plan.Validate(v.q); err != nil {
					t.Fatalf("%v %s n=%d seed=%d: hybrid (%s) invalid plan: %v", shape, v.name, n, seed, name, err)
				}
				if math.IsInf(res.Bound, 0) || math.IsNaN(res.Bound) {
					t.Errorf("%v %s n=%d seed=%d: hybrid (%s) bound %g not finite", shape, v.name, n, seed, name, res.Bound)
				}
				if res.Bound > bushy.Cost*tol || res.Bound > exhaustive*tol {
					t.Errorf("%v %s n=%d seed=%d: hybrid (%s) bound %g exceeds the bushy optimum %g or the left-deep one %g",
						shape, v.name, n, seed, name, res.Bound, bushy.Cost, exhaustive)
				}
				if res.Cost*tol < bushy.Cost {
					t.Errorf("%v %s n=%d seed=%d: hybrid (%s) cost %g beats the bushy optimum %g — costing bug",
						shape, v.name, n, seed, name, res.Cost, bushy.Cost)
				}
			}
		}
	})
}

// TestHybridBeyondMonolithReach is the headline capability diff: on a
// 120-table snowflake the exact DP strategies refuse outright (the 2^n
// table caps), the monolithic MILP burns its whole budget at the root
// node and answers with its heuristic MIP start, while the hybrid returns
// a feasible stitched plan with a finite proven bound inside the same
// budget — and never a worse plan than the MILP's.
func TestHybridBeyondMonolithReach(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solves")
	}
	q := workload.Generate(workload.Snowflake, 120, 1, workload.Config{})

	for _, strat := range []string{"dp-bushy", "dp-leftdeep"} {
		if _, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: strat}); err == nil {
			t.Errorf("%s accepted 120 tables; the table-cap guard is gone", strat)
		} else if !errors.Is(err, joinorder.ErrInvalidOptions) && !errors.Is(err, joinorder.ErrInvalidQuery) {
			t.Logf("%s rejected 120 tables with: %v", strat, err)
		}
	}

	budget := joinorder.Budget{TimeLimit: 3 * time.Second}
	milp, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: "milp", Budget: budget})
	if err != nil {
		t.Fatalf("milp: %v", err)
	}
	if milp.Status == joinorder.StatusOptimal {
		t.Fatalf("milp proved optimality on 120 tables in %v — the instance is no longer hard", budget.TimeLimit)
	}

	start := time.Now()
	hyb, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: "hybrid", Budget: budget})
	if err != nil {
		t.Fatalf("hybrid: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*budget.TimeLimit+2*time.Second {
		t.Errorf("hybrid took %v against a %v budget", elapsed, budget.TimeLimit)
	}
	if hyb.Plan == nil || len(hyb.Plan.Order) != 120 {
		t.Fatal("hybrid returned no complete 120-table plan")
	}
	if err := hyb.Plan.Validate(q); err != nil {
		t.Fatalf("hybrid plan invalid: %v", err)
	}
	if math.IsInf(hyb.Bound, 0) || math.IsNaN(hyb.Bound) || hyb.Bound <= 0 {
		t.Errorf("hybrid bound %g not finite and positive", hyb.Bound)
	}
	if hyb.Cost > milp.Cost*(1+1e-9) {
		t.Errorf("hybrid cost %g worse than the milp MIP start %g", hyb.Cost, milp.Cost)
	}
}
