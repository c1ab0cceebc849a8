package core

import (
	"context"
	"math"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
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
	enc := res.Encoding
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
	opts := Options{Metric: cost.Cout, Precision: PrecisionMedium, ExpensivePredicates: true, CardCap: 1e9, Threads: 2}
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	enc := res.Encoding
	sol := res.Solution
	for _, pi := range []int{0, 2} {
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
	q := paperQuery()
	cheap, err := Optimize(context.Background(), q, Options{Metric: cost.Cout, Precision: PrecisionHigh, ExpensivePredicates: true})
	if err != nil {
		t.Fatal(err)
	}
	q2 := paperQuery()
	q2.Predicates[0].EvalCostPerTuple = 100
	dear, err := Optimize(context.Background(), q2, Options{Metric: cost.Cout, Precision: PrecisionHigh, ExpensivePredicates: true})
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

func projectionQuery() *qopt.Query {
	q := &qopt.Query{
		Tables: []qopt.Table{
			{Name: "R", Card: 100},
			{Name: "S", Card: 2000},
			{Name: "T", Card: 500},
		},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.01},
			{Tables: []int{1, 2}, Sel: 0.02},
		},
		Columns: []qopt.Column{
			{Name: "R.key", Table: 0, Bytes: 8, Required: true},
			{Name: "R.fat", Table: 0, Bytes: 200},
			{Name: "S.key", Table: 1, Bytes: 8},
			{Name: "S.out", Table: 1, Bytes: 16, Required: true},
			{Name: "T.key", Table: 2, Bytes: 8},
		},
	}
	q.Predicates[0].Columns = []int{0, 2}
	q.Predicates[1].Columns = []int{2, 4}
	return q
}

func TestProjectionSolvesAndKeepsRequiredColumns(t *testing.T) {
	q := projectionQuery()
	opts := Options{
		Metric:     cost.OperatorCost,
		Op:         cost.HashJoin,
		Precision:  PrecisionMedium,
		CardCap:    1e8,
		Projection: true,
		Threads:    2,
	}
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	cols := res.Encoding.DecodeColumns(res.Solution)
	if cols == nil {
		t.Fatal("no column decode")
	}
	final := cols[len(cols)-1]
	for l, col := range q.Columns {
		if col.Required && !final[l] {
			t.Errorf("required column %s missing from final result", col.Name)
		}
	}
	// The 200-byte payload column is not required and feeds no
	// predicate: it should be projected out of every intermediate
	// result after (at the latest) the first join.
	for j := 1; j < len(cols); j++ {
		if cols[j][1] {
			t.Errorf("fat column survives into operand %d", j)
		}
	}
}

func TestProjectionKeepsPredicateColumnsAlive(t *testing.T) {
	q := projectionQuery()
	opts := Options{
		Metric:     cost.OperatorCost,
		Op:         cost.HashJoin,
		Precision:  PrecisionMedium,
		CardCap:    1e8,
		Projection: true,
		Threads:    2,
	}
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	enc := res.Encoding
	sol := res.Solution
	cols := enc.DecodeColumns(sol)
	// Wherever predicate 1 (S.key–T.key) is not yet applied but S is in
	// the operand, S.key must be present.
	for j := 1; j < enc.J; j++ {
		sPresent := sol.Value(enc.TIO[j][1]) > 0.5
		applied := sol.Value(enc.PAO[j][1]) > 0.5
		if sPresent && !applied && !cols[j][2] {
			t.Errorf("join %d: S.key projected out before predicate applied", j)
		}
	}
}

func TestOperatorSelectionWithExpensivePredicates(t *testing.T) {
	// Both Section 5.1 (evaluation cost) and Section 5.3 (operator
	// choice) active in one encoding.
	q := workload.Generate(workload.Chain, 4, 8, workload.Config{})
	q.Predicates[1].EvalCostPerTuple = 3
	opts := operatorOpts()
	opts.ExpensivePredicates = true
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
	if res.Plan.Operators == nil {
		t.Fatal("operators missing")
	}
	// The expensive predicate is evaluated exactly once.
	enc, sol := res.Encoding, res.Solution
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
