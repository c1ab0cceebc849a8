package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"milpjoin/internal/bb"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/milp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// paperQuery is the paper's running example: R ⋈ S ⋈ T, cardinalities
// 10/1000/100, one predicate R–S with selectivity 0.1.
func paperQuery() *qopt.Query {
	return &qopt.Query{
		Tables: []qopt.Table{
			{Name: "R", Card: 10},
			{Name: "S", Card: 1000},
			{Name: "T", Card: 100},
		},
		Predicates: []qopt.Predicate{
			{Name: "p", Tables: []int{0, 1}, Sel: 0.1},
		},
	}
}

func TestEncodePaperExampleShapes(t *testing.T) {
	enc, err := Encode(paperQuery(), Options{Metric: cost.Cout, Precision: PrecisionMedium})
	if err != nil {
		t.Fatal(err)
	}
	// Two joins: 6 tio + 6 tii variables, as in Example 1.
	if len(enc.TIO) != 2 || len(enc.TIO[0]) != 3 || len(enc.TII[1]) != 3 {
		t.Fatal("tio/tii shape wrong")
	}
	// Predicate variables exist for join 1 only (join 0's outer operand
	// is a single table).
	if enc.PAO[1][0] < 0 {
		t.Error("pao missing for join 1")
	}
	// Thresholds cover the cardinality range with ratio 10.
	if len(enc.Thresholds) == 0 {
		t.Fatal("no thresholds")
	}
	for r := 1; r < len(enc.Thresholds); r++ {
		if ratio := enc.Thresholds[r] / enc.Thresholds[r-1]; math.Abs(ratio-10) > 1e-9 {
			t.Errorf("threshold ratio %g, want 10", ratio)
		}
	}
}

func TestPaperExampleOptimalPlan(t *testing.T) {
	q := paperQuery()
	res, err := Optimize(context.Background(), q, Options{Metric: cost.Cout, Precision: PrecisionHigh})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatalf("no plan (status %v)", res.Status)
	}
	// Two co-optimal first joins exist: R ⋈ S (10·1000·0.1 = 1000) and
	// the cross product T × R (100·10 = 1000); joining S and T first
	// costs 100000. Either optimum prices at exactly 1000.
	if res.ExactCost != 1000 {
		t.Errorf("plan %v has exact cost %g, want 1000", res.Plan.Order, res.ExactCost)
	}
	enc := encodingOf(t, q, Options{Metric: cost.Cout, Precision: PrecisionHigh})
	if err := enc.CheckPlanRepresentation(res.Solution); err != nil {
		t.Error(err)
	}
}

// milpVsDP is the end-to-end correctness anchor: the decoded MILP-optimal
// plan must cost within the approximation tolerance of the DP optimum.
func milpVsDP(t *testing.T, q *qopt.Query, opts Options, spec cost.Spec) {
	t.Helper()
	opts.Threads = 2
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("solver status %v", res.Status)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	_, optCost, err := dp.OptimizeLeftDeep(context.Background(), q, spec, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := opts.ratio()
	// The MILP underestimates each intermediate by at most the
	// tolerance factor, so its argmin costs at most ratio × optimum
	// (plus slack for the per-join constant terms).
	limit := optCost*ratio + 64
	if res.ExactCost > limit {
		t.Fatalf("MILP plan %v costs %g; DP optimum %g (tolerance ratio %g)",
			res.Plan.Order, res.ExactCost, optCost, ratio)
	}
	if res.ExactCost < optCost-1e-6*(1+optCost) {
		t.Fatalf("MILP plan cost %g below DP optimum %g: costing bug", res.ExactCost, optCost)
	}
	if err := encodingOf(t, q, opts).CheckPlanRepresentation(res.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestMILPMatchesDPOnCout(t *testing.T) {
	for _, shape := range workload.Shapes() {
		for seed := int64(0); seed < 4; seed++ {
			q := workload.Generate(shape, 5, seed, workload.Config{})
			milpVsDP(t, q, Options{Metric: cost.Cout, Precision: PrecisionHigh}, cost.CoutSpec())
		}
	}
}

func TestMILPMatchesDPOnHashJoinCost(t *testing.T) {
	for _, shape := range workload.Shapes() {
		for seed := int64(10); seed < 13; seed++ {
			q := workload.Generate(shape, 5, seed, workload.Config{})
			opts := Options{Metric: cost.OperatorCost, Op: cost.HashJoin, Precision: PrecisionHigh}
			milpVsDP(t, q, opts, cost.DefaultSpec())
		}
	}
}

func TestMILPWithSortMergeCost(t *testing.T) {
	q := workload.Generate(workload.Star, 4, 2, workload.Config{})
	opts := Options{Metric: cost.OperatorCost, Op: cost.SortMergeJoin, Precision: PrecisionMedium}
	spec := cost.Spec{Metric: cost.OperatorCost, Op: cost.SortMergeJoin, Params: cost.Params{}.WithDefaults()}
	milpVsDP(t, q, opts, spec)
}

func TestMILPWithBNLCost(t *testing.T) {
	q := workload.Generate(workload.Chain, 4, 3, workload.Config{})
	opts := Options{Metric: cost.OperatorCost, Op: cost.BlockNestedLoopJoin, Precision: PrecisionMedium, CardCap: 1e8}
	spec := cost.Spec{Metric: cost.OperatorCost, Op: cost.BlockNestedLoopJoin, Params: cost.Params{}.WithDefaults()}
	milpVsDP(t, q, opts, spec)
}

func TestMILPWithCorrelatedPredicates(t *testing.T) {
	q := workload.Generate(workload.Cycle, 4, 5, workload.Config{})
	q.Correlated = []qopt.CorrelatedGroup{
		{Predicates: []int{0, 1}, CorrectionSel: 8},
	}
	milpVsDP(t, q, Options{Metric: cost.Cout, Precision: PrecisionHigh}, cost.CoutSpec())
}

func TestMILPWithNaryPredicate(t *testing.T) {
	q := workload.Generate(workload.Chain, 4, 6, workload.Config{})
	q.Predicates = append(q.Predicates, qopt.Predicate{
		Name: "tri", Tables: []int{0, 1, 3}, Sel: 0.05,
	})
	milpVsDP(t, q, Options{Metric: cost.Cout, Precision: PrecisionHigh}, cost.CoutSpec())
}

func TestMILPWithUnaryPredicateFolded(t *testing.T) {
	q := paperQuery()
	q.Predicates = append(q.Predicates, qopt.Predicate{
		Name: "filter", Tables: []int{1}, Sel: 0.01, // S shrinks to 10
	})
	res, err := Optimize(context.Background(), q, Options{Metric: cost.Cout, Precision: PrecisionHigh})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	// With S filtered to ~10 rows, R ⋈ S first is even more clearly
	// optimal; the exact cost must match the plan's true cost.
	recost, err := plan.Cost(q, res.Plan, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recost-res.ExactCost) > 1e-9 {
		t.Errorf("ExactCost %g != recost %g", res.ExactCost, recost)
	}
}

func TestPrecisionTradesModelSize(t *testing.T) {
	q := workload.Generate(workload.Star, 10, 1, workload.Config{})
	var prevVars int
	for _, prec := range []Precision{PrecisionLow, PrecisionMedium, PrecisionHigh} {
		enc, err := Encode(q, Options{Metric: cost.Cout, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		s := enc.Stats()
		if s.Vars <= prevVars {
			t.Errorf("%v precision: %d vars, want more than %d", prec, s.Vars, prevVars)
		}
		prevVars = s.Vars
	}
}

// TestTheorem1VariableCount and TestTheorem2ConstraintCount verify the
// formal analysis of Section 6: the MILP has O(n·(n+m+l)) variables and
// constraints.
func TestTheorem1VariableCount(t *testing.T) {
	for _, n := range []int{5, 10, 20, 40} {
		q := workload.Generate(workload.Star, n, 7, workload.Config{})
		enc, err := Encode(q, Options{Metric: cost.Cout, Precision: PrecisionMedium})
		if err != nil {
			t.Fatal(err)
		}
		m := len(q.Predicates)
		l := len(enc.Thresholds)
		bound := 4 * n * (n + m + l) // generous constant
		if got := enc.Stats().Vars; got > bound {
			t.Errorf("n=%d: %d variables exceeds O-bound %d", n, got, bound)
		}
	}
}

func TestTheorem2ConstraintCount(t *testing.T) {
	for _, n := range []int{5, 10, 20, 40} {
		q := workload.Generate(workload.Star, n, 7, workload.Config{})
		enc, err := Encode(q, Options{Metric: cost.Cout, Precision: PrecisionMedium})
		if err != nil {
			t.Fatal(err)
		}
		m := len(q.Predicates)
		l := len(enc.Thresholds)
		bound := 6 * n * (n + m + l)
		if got := enc.Stats().Constrs; got > bound {
			t.Errorf("n=%d: %d constraints exceeds O-bound %d", n, got, bound)
		}
	}
}

func TestEncodeRejectsBadOptions(t *testing.T) {
	q := paperQuery()
	if _, err := Encode(q, Options{InterestingOrders: true}); err == nil {
		t.Error("InterestingOrders without ChooseOperators accepted")
	}
	bad := &qopt.Query{Tables: []qopt.Table{{Card: 10}}}
	if _, err := Encode(bad, Options{}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestDecodeRejectsForeignSolution(t *testing.T) {
	enc, err := Encode(paperQuery(), Options{Metric: cost.Cout})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Decode(nil); err == nil {
		t.Error("nil solution accepted")
	}
	short := &milp.Solution{Values: make([]float64, 3)}
	if _, err := enc.Decode(short); err == nil {
		t.Error("wrong-length solution accepted")
	}
}

func TestEncodingWritesLP(t *testing.T) {
	enc, err := Encode(paperQuery(), Options{Metric: cost.Cout, Precision: PrecisionLow})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := enc.Model.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tio_R_0", "tii_S_1", "pao_p0_1", "cto_1_0", "Binaries"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("LP file missing %q", want)
		}
	}
}

func TestPrecisionAccessors(t *testing.T) {
	for _, tc := range []struct {
		p    Precision
		want float64
	}{{PrecisionHigh, 3}, {PrecisionMedium, 10}, {PrecisionLow, 100}} {
		r, err := tc.p.Ratio()
		if err != nil || r != tc.want {
			t.Errorf("%v.Ratio() = %v, %v; want %v", tc.p, r, err, tc.want)
		}
	}
	if _, err := Precision(99).Ratio(); err == nil {
		t.Error("unknown precision should yield an error, not a ratio")
	}
	if PrecisionHigh.String() != "high" || PrecisionLow.String() != "low" {
		t.Error("precision strings wrong")
	}
	if len(Precisions()) != 3 {
		t.Error("Precisions() should list three configurations")
	}
}

// TestGomoryCutsValidForPlans: root cuts must never exclude an integer
// plan assignment — validity of the cut translation on the real encodings.
func TestGomoryCutsValidForPlans(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		q := workload.Generate(workload.Star, 6, seed, workload.Config{})
		opts := Options{Metric: cost.OperatorCost, Op: cost.HashJoin, Precision: PrecisionMedium, Threads: 2}
		plain, err := Optimize(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.CutRounds = 2
		withCuts, err := Optimize(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != bb.StatusOptimal || withCuts.Status != bb.StatusOptimal {
			t.Fatalf("seed %d: statuses %v / %v", seed, plain.Status, withCuts.Status)
		}
		if math.Abs(plain.Solution.Obj-withCuts.Solution.Obj) > 1e-5*(1+math.Abs(plain.Solution.Obj)) {
			t.Fatalf("seed %d: cuts changed the optimum: %g vs %g", seed, plain.Solution.Obj, withCuts.Solution.Obj)
		}
	}
}

// TestAssignmentRoundTripProperty: for random queries and random valid
// plans, AssignmentForPlan produces a feasible assignment whose Decode
// returns exactly the same join order — the encoder and decoder are
// mutually consistent over the whole plan space, not just at optima.
func TestAssignmentRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(81))}
	prop := func(seed int64, shapePick, sizePick uint8) bool {
		shapes := workload.Shapes()
		shape := shapes[int(shapePick)%len(shapes)]
		n := 3 + int(sizePick)%6
		q := workload.Generate(shape, n, seed, workload.Config{})
		enc, err := Encode(q, Options{Metric: cost.Cout, Precision: PrecisionMedium})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		pl := &plan.Plan{Order: rng.Perm(n)}
		vals, err := enc.AssignmentForPlan(pl)
		if err != nil {
			return false
		}
		if err := enc.Model.CheckFeasible(vals, 1e-6); err != nil {
			t.Logf("seed %d %v n=%d: infeasible assignment: %v", seed, shape, n, err)
			return false
		}
		decoded, err := enc.Decode(&milp.Solution{Values: vals})
		if err != nil {
			return false
		}
		for i := range pl.Order {
			if decoded.Order[i] != pl.Order[i] {
				return false
			}
		}
		// The model objective of the assignment must be within the
		// precision tolerance of the plan's exact C_out from below.
		exact, err := plan.Cost(q, pl, cost.CoutSpec())
		if err != nil {
			return false
		}
		obj := enc.Model.EvalObjective(vals)
		return obj <= exact*(1+1e-9)+1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestOperatorAssignmentRoundTripProperty covers the operator-selection
// extension's MIP-start path the same way.
func TestOperatorAssignmentRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(82))}
	prop := func(seed int64, sizePick uint8) bool {
		n := 3 + int(sizePick)%4
		q := workload.Generate(workload.Star, n, seed, workload.Config{})
		enc, err := Encode(q, operatorOpts())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 2))
		pl := &plan.Plan{Order: rng.Perm(n)}
		vals, err := enc.AssignmentForPlan(pl)
		if err != nil {
			return false
		}
		if err := enc.Model.CheckFeasible(vals, 1e-6); err != nil {
			t.Logf("seed %d n=%d: %v", seed, n, err)
			return false
		}
		decoded, err := enc.Decode(&milp.Solution{Values: vals})
		if err != nil {
			return false
		}
		if decoded.Operators == nil {
			return false
		}
		for i := range pl.Order {
			if decoded.Order[i] != pl.Order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
