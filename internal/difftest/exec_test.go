package difftest

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"milpjoin/internal/exec"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// execMatrix is the grid for tests that actually execute every plan:
// sizes stay small enough that even a heuristic's worst plan materializes
// quickly, and every strategy (including the MILP) solves well inside its
// budget.
func execMatrix(shape workload.GraphShape) (minN, maxN, seedsPer int) {
	full := os.Getenv("DIFFTEST_FULL") != ""
	switch {
	case full:
		// 4 sizes (4..7) × 50 seeds = 200 queries per topology.
		return 4, 7, 50
	case testing.Short():
		return 4, 5, 1
	default:
		return 4, 6, 2
	}
}

// execQuery generates a query whose synthesized database stays small:
// 10…100-row tables and moderate selectivities keep every intermediate
// result executable even under a heuristic's worst join order.
func execQuery(shape workload.GraphShape, n int, seed int64) *joinorder.Query {
	return workload.Generate(shape, n, seed, workload.Config{
		MinLogCard: 1, MaxLogCard: 2,
		MinSel: 0.02, MaxSel: 0.3,
	})
}

func forEachExecQuery(t *testing.T, fn func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query, db *exec.Database)) {
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			minN, maxN, seedsPer := execMatrix(shape)
			for n := minN; n <= maxN; n++ {
				for s := 0; s < seedsPer; s++ {
					seed := int64(1000*n + s)
					q := execQuery(shape, n, seed)
					db, err := exec.Synthesize(q, seed*31+7)
					if err != nil {
						t.Fatalf("n=%d seed=%d: synthesize: %v", n, seed, err)
					}
					fn(t, shape, n, seed, q, db)
				}
			}
		})
	}
}

// measuredCout optimizes with one strategy and executes the plan through
// the streaming executor, returning the result fingerprint and the
// measured C_out (summed intermediate result sizes). Strategies that
// legitimately decline the query (IKKBZ on cyclic join graphs) report ok
// = false.
func measuredCout(t *testing.T, db *exec.Database, q *joinorder.Query, strategy string) (uint64, float64, bool) {
	t.Helper()
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: strategy,
		Budget:   joinorder.Budget{TimeLimit: 10 * time.Second},
	})
	if errors.Is(err, joinorder.ErrNoPlan) {
		return 0, 0, false
	}
	if err != nil {
		t.Fatalf("%s: %v", strategy, err)
	}
	run, err := db.Stream(res.Tree, exec.StreamOptions{})
	if err != nil {
		t.Fatalf("%s: stream: %v", strategy, err)
	}
	rel, err := run.Collect()
	if err != nil {
		t.Fatalf("%s: execute: %v", strategy, err)
	}
	fp, err := rel.Fingerprint(db.AllColumns())
	if err != nil {
		t.Fatal(err)
	}
	return fp, run.Trace.MeasuredCout(), true
}

// TestAllStrategiesExecuteToSameResult runs every registered strategy's
// plan through the streaming executor and checks that all of them produce
// the same result multiset — execution-level differential testing of the
// whole registry, left-deep and bushy planners alike.
func TestAllStrategiesExecuteToSameResult(t *testing.T) {
	strategies := joinorder.Strategies()
	forEachExecQuery(t, func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query, db *exec.Database) {
		var want uint64
		first := ""
		for _, strat := range strategies {
			fp, _, ok := measuredCout(t, db, q, strat)
			if !ok {
				continue
			}
			if first == "" {
				want, first = fp, strat
			} else if fp != want {
				t.Errorf("%v n=%d seed=%d: strategy %s produced a different result than %s",
					shape, n, seed, strat, first)
			}
		}
	})
}

// TestExecutedCostOrdering compares strategies on what actually matters:
// the measured intermediate result rows of their executed plans. Summed
// over the whole matrix (single queries are subject to sampling noise in
// the synthesized data), the MILP's and the hybrid decomposition's
// executed cost must not exceed the greedy heuristic's.
func TestExecutedCostOrdering(t *testing.T) {
	totals := map[string]float64{}
	queries := 0
	for _, shape := range shapes {
		minN, maxN, seedsPer := execMatrix(shape)
		for n := minN; n <= maxN; n++ {
			for s := 0; s < seedsPer; s++ {
				seed := int64(1000*n + s)
				q := execQuery(shape, n, seed)
				db, err := exec.Synthesize(q, seed*31+7)
				if err != nil {
					t.Fatalf("%v n=%d seed=%d: synthesize: %v", shape, n, seed, err)
				}
				for _, strat := range []string{"milp", "hybrid", "greedy"} {
					_, cout, ok := measuredCout(t, db, q, strat)
					if !ok {
						t.Fatalf("%v n=%d seed=%d: %s declined the query", shape, n, seed, strat)
					}
					totals[strat] += cout
				}
				queries++
			}
		}
	}
	greedy := totals["greedy"]
	t.Logf("executed C_out over %d queries: milp %.0f, hybrid %.0f, greedy %.0f",
		queries, totals["milp"], totals["hybrid"], greedy)
	// Tiny slack covers data-sampling noise: the optimizers minimize
	// expected cost, the executor measures one sample of it.
	slack := greedy*0.02 + 10
	if totals["milp"] > greedy+slack {
		t.Errorf("MILP executed C_out %.0f exceeds greedy's %.0f", totals["milp"], greedy)
	}
	if totals["hybrid"] > greedy+slack {
		t.Errorf("hybrid executed C_out %.0f exceeds greedy's %.0f", totals["hybrid"], greedy)
	}
}
