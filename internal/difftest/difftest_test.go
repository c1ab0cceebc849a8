// Package difftest cross-checks the optimizers against each other on
// randomized workloads: the MILP strategy against the exact left-deep DP
// baseline (within the encoding's proven approximation guarantee), the DP
// baselines against exhaustive oracles, and the strategy hierarchy
// dp-bushy ≤ dp-leftdeep ≤ greedy. Any disagreement is a bug in one of
// the optimizers — there is no "expected output" file to go stale.
//
// The seed matrix is fixed, so failures reproduce exactly. Plain `go test`
// runs a reduced matrix; setting DIFFTEST_FULL=1 (as CI does) widens it to
// at least 200 queries per topology.
package difftest

import (
	"context"
	"math"
	"math/bits"
	"os"
	"testing"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

var shapes = []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star, workload.Clique}

// matrix yields the deterministic (n, seed) grid per topology for the
// DP-only tests, which are cheap at every size. Clique sizes are capped
// lower with more seeds so each topology still gets ≥200 queries in full
// mode.
func matrix(shape workload.GraphShape) (minN, maxN, seedsPer int) {
	full := os.Getenv("DIFFTEST_FULL") != ""
	switch {
	case full && shape == workload.Clique:
		// 4 sizes (4..7) × 50 seeds = 200 queries.
		return 4, 7, 50
	case full:
		// 7 sizes (4..10) × 29 seeds = 203 queries.
		return 4, 10, 29
	case testing.Short():
		return 4, 5, 2
	case shape == workload.Clique:
		return 4, 6, 3
	default:
		return 4, 7, 3
	}
}

// milpMatrix is the grid for tests that solve every query with the MILP
// strategy to proven optimality. Sizes are chosen per shape so solves
// finish well inside the per-query time budget (a budget stop proves
// nothing and only burns CI time): stars stay easy up to 10 tables,
// while dense chains/cycles/cliques above 7 start hitting the budget.
// Seed counts compensate to keep ≥200 queries per topology in full mode.
func milpMatrix(shape workload.GraphShape) (minN, maxN, seedsPer int) {
	full := os.Getenv("DIFFTEST_FULL") != ""
	switch {
	case full && shape == workload.Star:
		// 7 sizes (4..10) × 29 seeds = 203 queries.
		return 4, 10, 29
	case full:
		// 4 sizes (4..7) × 50 seeds = 200 queries.
		return 4, 7, 50
	case testing.Short():
		return 4, 5, 2
	case shape == workload.Clique:
		return 4, 6, 3
	default:
		return 4, 7, 3
	}
}

type matrixFunc func(workload.GraphShape) (minN, maxN, seedsPer int)

func forEachQueryMatrix(t *testing.T, matrix matrixFunc, fn func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query)) {
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			t.Parallel()
			minN, maxN, seedsPer := matrix(shape)
			for n := minN; n <= maxN; n++ {
				for s := 0; s < seedsPer; s++ {
					seed := int64(1000*n + s)
					// Moderate cardinalities (10..1000 rows) keep the
					// uncapped threshold ladder short enough to solve
					// hundreds of instances.
					q := workload.Generate(shape, n, seed, workload.Config{MinLogCard: 1, MaxLogCard: 3})
					fn(t, shape, n, seed, q)
				}
			}
		})
	}
}

func forEachQuery(t *testing.T, fn func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query)) {
	forEachQueryMatrix(t, matrix, fn)
}

// TestMILPAgainstExactDP solves every matrix query with the MILP strategy
// at every precision and checks the paper's guarantee against the exact
// left-deep optimum:
//
//  1. the MILP plan's exact cost is never better than the DP optimum
//     (DP is exact over the same space), and never worse than ratio
//     times it — the threshold ladder underestimates each intermediate
//     cardinality by at most the ratio, so a proven-optimal MILP plan's
//     true cost is within one ratio factor of optimal;
//  2. in model space the comparison is tight: the MILP's optimal
//     objective is at most the DP plan's approximated objective (the DP
//     plan is a feasible MILP assignment).
func TestMILPAgainstExactDP(t *testing.T) {
	forEachQueryMatrix(t, milpMatrix, func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query) {
		dpRes, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: "dp-leftdeep"})
		if err != nil {
			t.Fatalf("n=%d seed=%d: dp: %v", n, seed, err)
		}
		// The approximation guarantee holds only below the cardinality
		// cap (capped intermediates are priced at the cap, an unbounded
		// underestimate), so raise the cap above the query's largest
		// possible intermediate result: the product of all table
		// cardinalities.
		cap := 2.0
		for _, tb := range q.Tables {
			cap *= tb.Card
		}
		for _, prec := range []joinorder.Precision{joinorder.PrecisionHigh, joinorder.PrecisionMedium} {
			opts := joinorder.Options{
				Strategy:  "milp",
				Precision: prec,
				CardCap:   cap,
				Budget:    joinorder.Budget{TimeLimit: 15 * time.Second},
			}
			res, err := joinorder.Optimize(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("n=%d seed=%d prec=%v: milp: %v", n, seed, prec, err)
			}
			if res.Status != joinorder.StatusOptimal {
				// A budget stop proves nothing; skip the guarantee
				// checks rather than fail on a slow machine.
				t.Logf("n=%d seed=%d prec=%v: milp stopped %v, skipping", n, seed, prec, res.Status)
				continue
			}
			ratio, err := prec.Ratio()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost < dpRes.Cost*(1-1e-9) {
				t.Errorf("%v n=%d seed=%d prec=%v: MILP plan cost %g beats exact DP optimum %g — DP is broken",
					shape, n, seed, prec, res.Cost, dpRes.Cost)
			}
			if res.Cost > dpRes.Cost*ratio*(1+1e-9) {
				t.Errorf("%v n=%d seed=%d prec=%v: MILP plan cost %g exceeds guarantee %g×%g on exact optimum",
					shape, n, seed, prec, res.Cost, ratio, dpRes.Cost)
			}

			// Model-space tightness: encode once more with the same
			// options and price the DP plan inside the model.
			enc, err := core.Encode(q, core.Options{Precision: prec, CardCap: cap})
			if err != nil {
				t.Fatalf("n=%d seed=%d: encode: %v", n, seed, err)
			}
			assign, err := enc.AssignmentForPlan(dpRes.Plan)
			if err != nil {
				t.Fatalf("n=%d seed=%d: assignment for DP plan: %v", n, seed, err)
			}
			if err := enc.Model.CheckFeasible(assign, 1e-6); err != nil {
				t.Errorf("%v n=%d seed=%d prec=%v: exact DP plan infeasible in the MILP: %v",
					shape, n, seed, prec, err)
				continue
			}
			dpObj := enc.Model.EvalObjective(assign)
			if res.Objective > dpObj*(1+1e-6)+1e-6 {
				t.Errorf("%v n=%d seed=%d prec=%v: MILP 'optimal' objective %g exceeds a feasible assignment's %g",
					shape, n, seed, prec, res.Objective, dpObj)
			}
		}
	})
}

// TestStrategyHierarchy checks the cost ordering that must hold by
// construction: the bushy optimum can only improve on the left-deep
// optimum, which can only improve on the greedy heuristic.
func TestStrategyHierarchy(t *testing.T) {
	forEachQuery(t, func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query) {
		costs := map[string]float64{}
		for _, strat := range []string{"dp-bushy", "dp-leftdeep", "greedy"} {
			res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: strat})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %s: %v", n, seed, strat, err)
			}
			costs[strat] = res.Cost
		}
		const tol = 1 + 1e-9
		if costs["dp-bushy"] > costs["dp-leftdeep"]*tol {
			t.Errorf("%v n=%d seed=%d: bushy optimum %g worse than left-deep %g",
				shape, n, seed, costs["dp-bushy"], costs["dp-leftdeep"])
		}
		if costs["dp-leftdeep"] > costs["greedy"]*tol {
			t.Errorf("%v n=%d seed=%d: left-deep optimum %g worse than greedy %g",
				shape, n, seed, costs["dp-leftdeep"], costs["greedy"])
		}
	})
}

// variant is one input of the exact oracles.
type variant struct {
	name string
	q    *joinorder.Query
}

// withFilteredTwin returns q and its filtered twin: q plus a filter of
// selectivity 1e-3 on its highest-index table and, when q has at least two
// binary predicates, a correlated group over the first two with correction
// 3. A filter on the highest-index table is the input a subset DP that
// extends each set by its lowest table never reaches except through the
// singleton.
func withFilteredTwin(q *joinorder.Query) []variant {
	twin := *q
	n := q.NumTables()
	twin.Predicates = append(append([]joinorder.Predicate(nil), q.Predicates...),
		joinorder.Predicate{Name: "filter", Tables: []int{n - 1}, Sel: 1e-3})
	var binary []int
	for pi, p := range q.Predicates {
		if p.IsBinary() {
			binary = append(binary, pi)
		}
	}
	if len(binary) >= 2 {
		twin.Correlated = append(append([]joinorder.CorrelatedGroup(nil), q.Correlated...),
			joinorder.CorrelatedGroup{Predicates: binary[:2], CorrectionSel: 3})
	}
	return []variant{{"query", q}, {"filtered twin", &twin}}
}

// TestDPAgainstExhaustiveOracle validates the DP baseline itself against
// brute-force enumeration on queries small enough to enumerate, and on
// their filtered twins, under C_out and hash-join operator cost.
func TestDPAgainstExhaustiveOracle(t *testing.T) {
	forEachQuery(t, func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query) {
		if n > 8 {
			return
		}
		for _, v := range withFilteredTwin(q) {
			for _, opts := range []joinorder.Options{
				{Strategy: "dp-leftdeep"}, // the zero-value public options: C_out
				{Strategy: "dp-leftdeep", Metric: joinorder.OperatorCost, Op: joinorder.HashJoin},
			} {
				res, err := joinorder.Optimize(context.Background(), v.q, opts)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: dp: %v", v.name, n, seed, err)
				}
				spec := cost.Spec{Metric: opts.Metric, Op: opts.Op, Params: cost.Params{}.WithDefaults()}
				_, best, err := dp.ExhaustiveLeftDeep(v.q, spec)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: exhaustive: %v", v.name, n, seed, err)
				}
				if math.Abs(res.Cost-best) > 1e-6*math.Max(1, best) {
					t.Errorf("%v %s n=%d seed=%d %v: DP cost %g != exhaustive optimum %g",
						shape, v.name, n, seed, opts.Metric, res.Cost, best)
				}
			}
		}
	})
}

// bushyTrees enumerates every ordered bushy join tree over a table set
// (a bitmask): n!·Catalan(n-1) trees. Subtrees are shared between results.
func bushyTrees(set int) []*plan.Tree {
	if set&(set-1) == 0 {
		return []*plan.Tree{plan.Leaf(bits.TrailingZeros(uint(set)))}
	}
	var ts []*plan.Tree
	for left := (set - 1) & set; left > 0; left = (left - 1) & set {
		for _, l := range bushyTrees(left) {
			for _, r := range bushyTrees(set ^ left) {
				ts = append(ts, plan.Join(l, r))
			}
		}
	}
	return ts
}

// TestDPConvAgainstBushyOracle validates the exact bushy strategy through
// the public API against brute force: on every matrix query small enough
// to enumerate, and its filtered twin, its cost equals the minimum of
// plan.TreeCost over every bushy tree.
func TestDPConvAgainstBushyOracle(t *testing.T) {
	forEachQuery(t, func(t *testing.T, shape workload.GraphShape, n int, seed int64, q *joinorder.Query) {
		if n > 6 {
			return
		}
		for _, v := range withFilteredTwin(q) {
			conv, err := joinorder.Optimize(context.Background(), v.q, joinorder.Options{Strategy: "dp-bushy"})
			if err != nil {
				t.Fatalf("%s n=%d seed=%d: dp-bushy: %v", v.name, n, seed, err)
			}
			best := math.Inf(1)
			for _, tr := range bushyTrees(1<<n - 1) {
				c, err := plan.TreeCost(v.q, tr, cost.CoutSpec())
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v: %v", v.name, n, seed, tr, err)
				}
				best = math.Min(best, c)
			}
			if math.Abs(conv.Cost-best) > 1e-9*math.Max(1, best) {
				t.Errorf("%v %s n=%d seed=%d: dp-bushy %g != exhaustive optimum %g (tree %v)",
					shape, v.name, n, seed, conv.Cost, best, conv.Tree)
			}
			if conv.Status != joinorder.StatusOptimal {
				t.Errorf("%v %s n=%d seed=%d: status %v, want optimal", shape, v.name, n, seed, conv.Status)
			}
		}
	})
}
