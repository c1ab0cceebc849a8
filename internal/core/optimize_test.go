package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/cost"
	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// encodingOf encodes q under opts as Optimize does: encoding is
// deterministic, so the model is the one Optimize solved and its handles
// index Optimize's solution.
func encodingOf(t *testing.T, q *qopt.Query, opts Options) *Encoding {
	t.Helper()
	enc, err := Encode(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// coutOptimum solves a C_out encoding, whose objective constant is not
// zero, to optimality and returns the result and the model solved, with the
// incumbent and bound events of the solve.
func coutOptimum(t *testing.T) (*Result, *milp.Model, []obs.Event) {
	t.Helper()
	q := workload.Generate(workload.Chain, 6, 3, workload.Config{})
	var seen []obs.Event
	opts := Options{Metric: cost.Cout, Precision: PrecisionHigh}
	opts.OnEvent = func(ev obs.Event) {
		if ev.Kind == obs.KindIncumbent || ev.Kind == obs.KindBound {
			seen = append(seen, ev)
		}
	}
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal || res.Solution == nil {
		t.Fatalf("status = %v, solution %v", res.Status, res.Solution)
	}
	m := encodingOf(t, q, opts).Model
	if m.ObjConstant() == 0 {
		t.Fatal("the C_out encoding has no objective constant; the test needs one")
	}
	return res, m, seen
}

// TestObjectiveConstantPropagates: the proven bound is in the model's
// objective space, constant included, so at optimality it meets the
// decoded objective.
func TestObjectiveConstantPropagates(t *testing.T) {
	res, m, _ := coutOptimum(t)
	obj := res.Solution.Obj
	if obj != m.EvalObjective(res.Solution.Values) {
		t.Errorf("Solution.Obj %g is not the model objective of its values", obj)
	}
	if math.Abs(res.Bound-obj) > 1e-6*math.Max(1, math.Abs(obj)) {
		t.Errorf("bound %g vs objective %g at optimality (constant %g lost?)", res.Bound, obj, m.ObjConstant())
	}
}

// TestAnytimeCallbackIncludesConstant: the event stream reports incumbents
// in the same space, so the last incumbent event is the decoded objective.
func TestAnytimeCallbackIncludesConstant(t *testing.T) {
	res, m, seen := coutOptimum(t)
	if len(seen) == 0 {
		t.Fatal("no incumbent or bound events")
	}
	final := seen[len(seen)-1]
	if obj := res.Solution.Obj; math.Abs(final.Incumbent-obj) > 1e-6*math.Max(1, math.Abs(obj)) {
		t.Errorf("callback incumbent %g vs final obj %g (constant %g lost?)", final.Incumbent, obj, m.ObjConstant())
	}
}

// TestKnapsackThroughSolve: solve maps branch and bound's answer back to
// model space as a feasible assignment whose objective meets the bound.
func TestKnapsackThroughSolve(t *testing.T) {
	m := milp.NewModel("knapsack")
	a := m.AddBinary(-10, "a")
	b := m.AddBinary(-13, "b")
	c := m.AddBinary(-7, "c")
	d := m.AddBinary(-4, "d")
	m.AddConstr(milp.Expr(a, 3.0, b, 4.0, c, 2.0, d, 1.0), milp.LE, 6, "cap")

	res := solveModel(t, m, Options{})
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Solution.Obj-(-21)) > 1e-6 {
		t.Errorf("obj = %g, want -21", res.Solution.Obj)
	}
	if err := m.CheckFeasible(res.Solution.Values, 1e-6); err != nil {
		t.Errorf("solution infeasible: %v", err)
	}
	if math.Abs(res.Bound-res.Solution.Obj) > 1e-5 {
		t.Errorf("bound %g != obj %g at optimality", res.Bound, res.Solution.Obj)
	}
}

// TestUnboundedThroughSolve: an unbounded model reports no solution and a
// bound of -Inf.
func TestUnboundedThroughSolve(t *testing.T) {
	m := milp.NewModel("unb")
	x := m.AddContinuous(0, math.Inf(1), -1, "x")
	y := m.AddContinuous(0, math.Inf(1), 0, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, -1.0), milp.LE, 0, "c")
	res := solveModel(t, m, Options{})
	if res.Status != bb.StatusUnbounded {
		t.Fatalf("status = %v", res.Status)
	}
	if !math.IsInf(res.Bound, -1) {
		t.Errorf("bound = %g, want -Inf", res.Bound)
	}
}

// TestTimeLimitStatus: a search stopped by a context deadline keeps a
// model-space incumbent no better than its bound.
func TestTimeLimitStatus(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := milp.NewModel("tl")
	// Correlated knapsack: hard to close the gap.
	e := milp.LinExpr{}
	for j := 0; j < 60; j++ {
		w := 1 + rng.Float64()*20
		v := m.AddBinary(-(w + rng.Float64()*0.01), "")
		e = e.Add(v, w)
	}
	m.AddConstr(e, milp.LE, 100, "cap")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := solve(ctx, m, new(milp.Computational), Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusTimeLimit && res.Status != bb.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Solution != nil && res.Solution.Obj < res.Bound-1e-6 {
		t.Errorf("incumbent %g below bound %g", res.Solution.Obj, res.Bound)
	}
}

// TestMaxNodesStatus: Options.MaxNodes reaches branch and bound.
func TestMaxNodesStatus(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m := milp.NewModel("nodes")
	e := milp.LinExpr{}
	for j := 0; j < 30; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*10), "")
		e = e.Add(v, 1+rng.Float64()*10)
	}
	m.AddConstr(e, milp.LE, 40, "cap")
	res := solveModel(t, m, Options{MaxNodes: 2})
	if res.Status != bb.StatusNodeLimit && res.Status != bb.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
}
