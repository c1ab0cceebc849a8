package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/milp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

func operatorOpts() Options {
	return Options{
		Metric:          cost.OperatorCost,
		Op:              cost.HashJoin,
		Precision:       PrecisionMedium,
		CardCap:         1e8,
		ChooseOperators: true,
		Threads:         2,
	}
}

func TestOperatorSelectionDecodesAndBeatsFixed(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		q := workload.Generate(workload.Star, 4, seed, workload.Config{})
		res, err := Optimize(context.Background(), q, operatorOpts())
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != bb.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, res.Status)
		}
		if res.Plan.Operators == nil || len(res.Plan.Operators) != q.NumJoins() {
			t.Fatalf("seed %d: no per-join operators decoded", seed)
		}
		// The chosen mix must cost at most the DP optimum over fixed
		// hash joins, within the approximation tolerance.
		_, hashOpt, err := dp.OptimizeLeftDeep(context.Background(), q, cost.DefaultSpec(), dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := plan.Cost(q, res.Plan, cost.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		limit := hashOpt*operatorOpts().ratio() + 64
		if exact > limit {
			t.Errorf("seed %d: operator-mix plan costs %g, hash optimum %g", seed, exact, hashOpt)
		}
	}
}

func TestOperatorSelectionMatchesDPWithOperators(t *testing.T) {
	q := workload.Generate(workload.Chain, 4, 1, workload.Config{})
	res, err := Optimize(context.Background(), q, operatorOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	_, optCost, err := dp.OptimizeLeftDeep(context.Background(), q, cost.DefaultSpec(), dp.Options{ChooseOperators: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactCost > optCost*operatorOpts().ratio()+64 {
		t.Errorf("MILP operator plan %g vs DP operator optimum %g", res.ExactCost, optCost)
	}
	if res.ExactCost < optCost-1e-6*(1+optCost) {
		t.Errorf("MILP exact cost %g below DP optimum %g", res.ExactCost, optCost)
	}
}

func TestInterestingOrdersEncodeAndSolve(t *testing.T) {
	q := workload.Generate(workload.Chain, 4, 2, workload.Config{})
	for i := range q.Tables {
		q.Tables[i].Sorted = true
	}
	opts := operatorOpts()
	opts.InterestingOrders = true
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	// Sortedness variables must be consistent with the selected
	// operators: ohp_j = 1 exactly when join j−1 was a sort-merge
	// variant (or, for j = 0, the first table is sorted).
	enc := encodingOf(t, q, opts)
	sol := res.Solution
	for j := 1; j < enc.J; j++ {
		smj := sol.Value(enc.JOS[j-1][1]) > 0.5
		pre := sol.Value(enc.JOS[j-1][3]) > 0.5
		sorted := sol.Value(enc.OHP[j]) > 0.5
		if sorted != (smj || pre) {
			t.Errorf("join %d: ohp=%v but smj=%v presorted=%v", j, sorted, smj, pre)
		}
	}
}

func TestInterestingOrdersFavorsSortMergeOnSortedInputs(t *testing.T) {
	// Large sorted tables: merging without sorting is far cheaper than
	// hashing, so the encoder should pick sort-merge variants.
	q := &qopt.Query{
		Tables: []qopt.Table{
			{Name: "A", Card: 50000, Sorted: true},
			{Name: "B", Card: 50000, Sorted: true},
			{Name: "C", Card: 50000, Sorted: true},
		},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 1e-4},
			{Tables: []int{1, 2}, Sel: 1e-4},
		},
	}
	opts := operatorOpts()
	opts.InterestingOrders = true
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	foundSMJ := false
	for _, op := range res.Plan.Operators {
		if op == cost.SortMergeJoin {
			foundSMJ = true
		}
	}
	if !foundSMJ {
		t.Errorf("operators %v: expected a sort-merge join on pre-sorted inputs", res.Plan.Operators)
	}
}

func TestExpensivePredicatesEvaluatedExactlyOnce(t *testing.T) {
	q := workload.Generate(workload.Chain, 4, 4, workload.Config{})
	q.Predicates[0].EvalCostPerTuple = 5
	q.Predicates[2].EvalCostPerTuple = 2
	q.Predicates = append(q.Predicates, qopt.Predicate{Tables: []int{1}, Sel: 0.5, EvalCostPerTuple: 3})
	opts := Options{Metric: cost.OperatorCost, Precision: PrecisionMedium, CardCap: 1e9, Threads: 2}
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.MIPStart != "greedy" {
		t.Errorf("MIP start %q, want the greedy plan", res.MIPStart)
	}
	enc := encodingOf(t, q, opts)
	sol := res.Solution
	for _, pi := range []int{0, 2, len(q.Predicates) - 1} {
		total := 0.0
		for j := 0; j < enc.J; j++ {
			if v := enc.PCO[j][pi]; v >= 0 {
				total += sol.Value(v)
			}
		}
		if math.Abs(total-1) > 1e-6 {
			t.Errorf("predicate %d evaluated %g times, want exactly once", pi, total)
		}
	}
}

func TestExpensivePredicateEvaluationCostCounted(t *testing.T) {
	// Identical plans, but one predicate becomes expensive: the MILP
	// objective must grow.
	opts := Options{Metric: cost.OperatorCost, Precision: PrecisionHigh}
	cheap, err := Optimize(context.Background(), paperQuery(), opts)
	if err != nil {
		t.Fatal(err)
	}
	q2 := paperQuery()
	q2.Predicates[0].EvalCostPerTuple = 100
	dear, err := Optimize(context.Background(), q2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dear.Status != bb.StatusOptimal || cheap.Status != bb.StatusOptimal {
		t.Fatalf("statuses %v / %v", cheap.Status, dear.Status)
	}
	if dear.Solution.Obj <= cheap.Solution.Obj {
		t.Errorf("expensive predicate did not increase objective: %g vs %g", dear.Solution.Obj, cheap.Solution.Obj)
	}
}

// expensiveChain is a 5-table chain whose predicates cost 50/20/0/80 per
// tuple to evaluate.
func expensiveChain() *qopt.Query {
	q := &qopt.Query{}
	for i, c := range []float64{1000, 100, 10, 5000, 300} {
		q.Tables = append(q.Tables, qopt.Table{Name: fmt.Sprintf("T%d", i), Card: c})
	}
	for i, sel := range []float64{0.01, 0.1, 0.01, 0.005} {
		ec := []float64{50, 20, 0, 80}[i]
		q.Predicates = append(q.Predicates, qopt.Predicate{Tables: []int{i, i + 1}, Sel: sel, EvalCostPerTuple: ec})
	}
	return q
}

// TestExpensivePredicatesFeasibleAtEveryCap: the Section 5.1 rows link
// binaries with unit coefficients, so the incumbent is feasible in the
// model whatever the precision and cardinality cap, and the evaluation
// costs raise its objective.
func TestExpensivePredicatesFeasibleAtEveryCap(t *testing.T) {
	free := expensiveChain()
	for i := range free.Predicates {
		free.Predicates[i].EvalCostPerTuple = 0
	}
	for _, prec := range Precisions() {
		for _, cardCap := range []float64{1e6, 1e9, 1e12} {
			opts := Options{Metric: cost.OperatorCost, Precision: prec, CardCap: cardCap, Threads: 1}
			res, err := Optimize(context.Background(), expensiveChain(), opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Optimize(context.Background(), free, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solution == nil || base.Solution == nil {
				t.Fatalf("%v/%g: no incumbent", prec, cardCap)
			}
			m := encodingOf(t, expensiveChain(), opts).Model
			if err := m.CheckFeasible(res.Solution.Values, 1e-5); err != nil {
				t.Errorf("%v/%g: incumbent infeasible: %v", prec, cardCap, err)
			}
			for i := 0; i < m.NumConstrs(); i++ {
				expr, _, _, name := m.Constr(i)
				if !strings.HasPrefix(name, "epc_") && !strings.HasPrefix(name, "pcodef_") {
					continue
				}
				expr.Terms(func(_ milp.Var, c float64) {
					if c != 1 && c != -1 {
						t.Errorf("%v/%g: row %s has coefficient %g", prec, cardCap, name, c)
					}
				})
			}
			if res.Solution.Obj <= base.Solution.Obj {
				t.Errorf("%v/%g: objective %g, %g with the evaluation costs zeroed", prec, cardCap, res.Solution.Obj, base.Solution.Obj)
			}
		}
	}
}

func TestOperatorSelectionWithExpensivePredicates(t *testing.T) {
	// Both Section 5.1 (evaluation cost) and Section 5.3 (operator
	// choice) active in one encoding.
	q := workload.Generate(workload.Chain, 4, 8, workload.Config{})
	q.Predicates[1].EvalCostPerTuple = 3
	res, err := Optimize(context.Background(), q, operatorOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	if res.Plan.Operators == nil {
		t.Fatal("operators missing")
	}
	// The expensive predicate is evaluated exactly once.
	enc, sol := encodingOf(t, q, operatorOpts()), res.Solution
	total := 0.0
	for j := 0; j < enc.J; j++ {
		if v := enc.PCO[j][1]; v >= 0 {
			total += sol.Value(v)
		}
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("expensive predicate evaluated %g times", total)
	}
}

func TestCardCapHonored(t *testing.T) {
	q := workload.Generate(workload.Chain, 6, 1, workload.Config{})
	for _, cap := range []float64{1e6, 1e10} {
		enc, err := Encode(q, Options{Metric: cost.Cout, Precision: PrecisionMedium, CardCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		top := enc.Thresholds[len(enc.Thresholds)-1]
		// The ladder covers the cap but stops within one ratio above it.
		if top < cap {
			t.Errorf("cap %g: ladder tops out at %g", cap, top)
		}
		if top > cap*enc.Opts.ratio()*enc.Opts.ratio() {
			t.Errorf("cap %g: ladder overshoots to %g", cap, top)
		}
	}
}

// TestExpensivePredicatesNearLeftDeepOptimum: with every second predicate
// given an evaluation cost, the greedy plan seeds the search, the incumbent
// is feasible in the model, and the plan costs at most ten times (the
// medium precision's factor) the left-deep optimum under the same billing
// rule — on every draw whose optimal plan stays under the cardinality cap.
func TestExpensivePredicatesNearLeftDeepOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("24 MILP searches")
	}
	opts := Options{Metric: cost.OperatorCost, Precision: PrecisionMedium, Threads: 1}
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Star, workload.Cycle} {
		for seed := int64(1); seed <= 8; seed++ {
			q := workload.Generate(shape, 5, seed, workload.Config{})
			for i := 0; i < len(q.Predicates); i += 2 {
				q.Predicates[i].EvalCostPerTuple = 10
			}
			res, err := Optimize(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.MIPStart != "greedy" || res.Solution == nil {
				t.Fatalf("%v/%d: MIP start %q", shape, seed, res.MIPStart)
			}
			if err := encodingOf(t, q, opts).Model.CheckFeasible(res.Solution.Values, 1e-5); err != nil {
				t.Errorf("%v/%d: incumbent infeasible: %v", shape, seed, err)
			}
			best, opt, err := dp.OptimizeLeftDeep(context.Background(), q, opts.Spec(), dp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			steps, err := plan.Evaluate(q, best, cost.CoutSpec())
			if err != nil {
				t.Fatal(err)
			}
			peak := 0.0
			for _, st := range steps.Steps[:len(steps.Steps)-1] {
				peak = max(peak, st.ResultCard)
			}
			if peak >= 1e12 {
				t.Logf("%v/%d: skipped, an intermediate of the optimal plan reaches %g", shape, seed, peak)
				continue
			}
			if res.ExactCost > 10*opt {
				t.Errorf("%v/%d: MILP plan costs %g, left-deep optimum %g", shape, seed, res.ExactCost, opt)
			}
		}
	}
}
