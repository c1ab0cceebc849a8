package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

func TestDPMatchesExhaustive(t *testing.T) {
	specs := []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()}
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star} {
		for seed := int64(0); seed < 8; seed++ {
			q := workload.Generate(shape, 6, seed, workload.Config{})
			for _, spec := range specs {
				dpPlan, dpCost, err := OptimizeLeftDeep(context.Background(), q, spec, Options{})
				if err != nil {
					t.Fatalf("%v seed %d: %v", shape, seed, err)
				}
				exPlan, exCost, err := ExhaustiveLeftDeep(q, spec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(dpCost-exCost) > 1e-6*(1+exCost) {
					t.Fatalf("%v seed %d %v: dp %g vs exhaustive %g (dp %v, ex %v)",
						shape, seed, spec.Metric, dpCost, exCost, dpPlan.Order, exPlan.Order)
				}
				// The DP cost must equal the exact plan cost.
				recost, err := plan.Cost(q, dpPlan, spec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(recost-dpCost) > 1e-6*(1+dpCost) {
					t.Fatalf("%v seed %d: dp reports %g but plan costs %g", shape, seed, dpCost, recost)
				}
			}
		}
	}
}

func TestDPWithCorrelatedGroups(t *testing.T) {
	q := workload.Generate(workload.Chain, 5, 3, workload.Config{})
	q.Correlated = []qopt.CorrelatedGroup{
		{Predicates: []int{0, 1}, CorrectionSel: 4},
	}
	dpPlan, dpCost, err := OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, exCost, err := ExhaustiveLeftDeep(q, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dpCost-exCost) > 1e-6*(1+exCost) {
		t.Fatalf("dp %g vs exhaustive %g", dpCost, exCost)
	}
	if err := dpPlan.Validate(q); err != nil {
		t.Fatal(err)
	}
}

func TestDPWithNaryPredicate(t *testing.T) {
	q := workload.Generate(workload.Chain, 5, 11, workload.Config{})
	q.Predicates = append(q.Predicates, qopt.Predicate{
		Name: "tri", Tables: []int{0, 2, 4}, Sel: 0.25,
	})
	_, dpCost, err := OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, exCost, err := ExhaustiveLeftDeep(q, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dpCost-exCost) > 1e-6*(1+exCost) {
		t.Fatalf("dp %g vs exhaustive %g", dpCost, exCost)
	}
}

// filteredChain is the 4-table chain T0–T1–T2–T3 (cards 1000/100/10/5000,
// sels 0.01/0.1/0.01) with a filter of selectivity 1e-4 on T3, the shape
// the SQL front end emits for `WHERE t3.x = …`. The filter sits on the
// highest-index table, which a subset recurrence extending each set by
// its lowest table reaches only through the singleton {T3}.
func filteredChain() *qopt.Query {
	return &qopt.Query{
		Tables: []qopt.Table{{Card: 1000}, {Card: 100}, {Card: 10}, {Card: 5000}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.01},
			{Tables: []int{1, 2}, Sel: 0.1},
			{Tables: []int{2, 3}, Sel: 0.01},
			{Tables: []int{3}, Sel: 1e-4},
		},
	}
}

// TestFilterOnHighestTable pins the exact optima of filteredChain: the
// left-deep DP, the bushy DP and the exhaustive oracle agree, and each
// DP's cost is the exact cost of its own plan.
func TestFilterOnHighestTable(t *testing.T) {
	q := filteredChain()
	for _, tc := range []struct {
		spec cost.Spec
		want float64
	}{{cost.CoutSpec(), 0.55}, {cost.DefaultSpec(), 240}} {
		_, ex, err := ExhaustiveLeftDeep(q, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		pl, c, err := OptimizeLeftDeep(context.Background(), q, tc.spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		recost, err := plan.Cost(q, pl, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		tree, bc, err := OptimizeBushy(context.Background(), q, tc.spec, BushyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		treeCost, err := plan.TreeCost(q, tree, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]float64{"exhaustive": ex, "dp-leftdeep": c, "its plan": recost} {
			if math.Abs(got-tc.want) > 1e-9*tc.want {
				t.Errorf("%v: %s cost %g, want %g", tc.spec.Metric, name, got, tc.want)
			}
		}
		if bc > tc.want*(1+1e-9) || math.Abs(treeCost-bc) > 1e-9*bc {
			t.Errorf("%v: dp-bushy %g (tree costs %g), want ≤ %g", tc.spec.Metric, bc, treeCost, tc.want)
		}
	}
}

// TestDPPricesExpensivePredicates: under operator cost, a predicate's
// evaluation cost is paid once, per outer tuple of the join where it
// completes. The DP prices it the way plan.Cost does, so its optimum is
// the exhaustive one and its reported cost is its plan's.
func TestDPPricesExpensivePredicates(t *testing.T) {
	spec := cost.DefaultSpec()
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star} {
		for seed := int64(0); seed < 6; seed++ {
			q := workload.Generate(shape, 6, seed, workload.Config{})
			q.Predicates[0].EvalCostPerTuple = 0.5
			q.Predicates = append(q.Predicates,
				qopt.Predicate{Tables: []int{5}, Sel: 0.3, EvalCostPerTuple: 4},
				qopt.Predicate{Tables: []int{int(seed) % 5}, Sel: 0.5, EvalCostPerTuple: 2})
			pl, c, err := OptimizeLeftDeep(context.Background(), q, spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, ex, err := ExhaustiveLeftDeep(q, spec)
			if err != nil {
				t.Fatal(err)
			}
			recost, err := plan.Cost(q, pl, spec)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(c-ex) > 1e-9*ex || math.Abs(recost-c) > 1e-9*c {
				t.Errorf("%v seed %d: dp %g, its plan %g, exhaustive %g", shape, seed, c, recost, ex)
			}
		}
	}
}

func TestDPTooLarge(t *testing.T) {
	q := workload.Generate(workload.Chain, 30, 1, workload.Config{})
	_, _, err := OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), Options{})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestDPTimeout: a context deadline far shorter than the DP ends it with
// the context's error and no plan.
func TestDPTimeout(t *testing.T) {
	q := workload.Generate(workload.Chain, 20, 1, workload.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	pl, _, err := OptimizeLeftDeep(ctx, q, cost.CoutSpec(), Options{})
	if !errors.Is(err, context.DeadlineExceeded) || pl != nil {
		t.Fatalf("plan %v, err = %v, want no plan and context.DeadlineExceeded", pl, err)
	}
}

func TestDPChooseOperators(t *testing.T) {
	q := workload.Generate(workload.Star, 6, 5, workload.Config{})
	pl, c, err := OptimizeLeftDeep(context.Background(), q, cost.DefaultSpec(), Options{ChooseOperators: true})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Operators == nil {
		t.Fatal("no operators assigned")
	}
	// Mixed-operator cost can only be ≤ the fixed hash-join optimum.
	_, fixedCost, err := OptimizeLeftDeep(context.Background(), q, cost.DefaultSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c > fixedCost+1e-6 {
		t.Errorf("operator choice worsened cost: %g vs %g", c, fixedCost)
	}
	// Reported cost must match the exact plan cost.
	recost, err := plan.Cost(q, pl, cost.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recost-c) > 1e-6*(1+c) {
		t.Errorf("dp reports %g, plan costs %g", c, recost)
	}
}

func TestGreedyValidAndBoundedByOptimal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		q := workload.Generate(workload.Cycle, 7, seed, workload.Config{})
		gPlan, gCost, err := GreedyLeftDeep(q, cost.CoutSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := gPlan.Validate(q); err != nil {
			t.Fatalf("seed %d: greedy plan invalid: %v", seed, err)
		}
		_, optCost, err := OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if gCost < optCost-1e-6*(1+optCost) {
			t.Fatalf("seed %d: greedy %g beats optimal %g", seed, gCost, optCost)
		}
	}
}

// TestGreedyAppliesCorrelationCorrections: T0 joins T1 on two predicates
// whose columns are fully correlated (group correction 10) and T2 on one.
// Counted independently, T1 looks like the smaller next result (10 rows
// against 20); with the correction it is 100, so greedy takes T2.
func TestGreedyAppliesCorrelationCorrections(t *testing.T) {
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 10}, {Card: 100}, {Card: 100}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.1},
			{Tables: []int{0, 1}, Sel: 0.1},
			{Tables: []int{0, 2}, Sel: 0.02},
		},
		Correlated: []qopt.CorrelatedGroup{{Predicates: []int{0, 1}, CorrectionSel: 10}},
	}
	pl, c, err := GreedyLeftDeep(q, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pl.Order) != "[0 2 1]" || c != 20 {
		t.Errorf("greedy plan %v cost %g, want [0 2 1] cost 20", pl.Order, c)
	}
}

func TestExhaustiveGuard(t *testing.T) {
	q := workload.Generate(workload.Chain, 12, 1, workload.Config{})
	if _, _, err := ExhaustiveLeftDeep(q, cost.CoutSpec()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDPInvalidQuery(t *testing.T) {
	q := &qopt.Query{Tables: []qopt.Table{{Card: 10}}}
	if _, _, err := OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), Options{}); err == nil {
		t.Fatal("expected validation error")
	}
	if _, _, err := GreedyLeftDeep(q, cost.CoutSpec()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDPPlanIsValid(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 14} {
		q := workload.Generate(workload.Star, n, int64(n), workload.Config{})
		pl, _, err := OptimizeLeftDeep(context.Background(), q, cost.DefaultSpec(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Validate(q); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func BenchmarkDP15Tables(b *testing.B) {
	q := workload.Generate(workload.Star, 15, 1, workload.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimizeLeftDeep(context.Background(), q, cost.DefaultSpec(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBushyNeverWorseThanLeftDeep(t *testing.T) {
	for _, shape := range workload.Shapes() {
		for seed := int64(0); seed < 5; seed++ {
			q := workload.Generate(shape, 7, seed, workload.Config{})
			for _, spec := range []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()} {
				_, ldCost, err := OptimizeLeftDeep(context.Background(), q, spec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				tree, bCost, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := tree.Validate(q); err != nil {
					t.Fatalf("%v seed %d: %v", shape, seed, err)
				}
				if bCost > ldCost+1e-6*(1+ldCost) {
					t.Fatalf("%v seed %d %v: bushy %g worse than left-deep %g",
						shape, seed, spec.Metric, bCost, ldCost)
				}
				// Reported cost must match exact tree costing.
				recost, err := plan.TreeCost(q, tree, spec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(recost-bCost) > 1e-6*(1+bCost) {
					t.Fatalf("%v seed %d: bushy reports %g, tree costs %g", shape, seed, bCost, recost)
				}
			}
		}
	}
}

func TestBushyMatchesLeftDeepOnTwoTables(t *testing.T) {
	q := workload.Generate(workload.Chain, 2, 1, workload.Config{})
	_, ld, err := OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := OptimizeBushy(context.Background(), q, cost.CoutSpec(), BushyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ld-b) > 1e-9 {
		t.Errorf("2 tables: left-deep %g vs bushy %g", ld, b)
	}
}

func TestBushyGuards(t *testing.T) {
	q := workload.Generate(workload.Chain, 22, 1, workload.Config{})
	if _, _, err := OptimizeBushy(context.Background(), q, cost.CoutSpec(), BushyOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	q2 := workload.Generate(workload.Chain, 16, 1, workload.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, _, err := OptimizeBushy(ctx, q2, cost.CoutSpec(), BushyOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
