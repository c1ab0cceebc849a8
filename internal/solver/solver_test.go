package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"milpjoin/internal/milp"
)

func TestKnapsackThroughFacade(t *testing.T) {
	m := milp.NewModel("knapsack")
	a := m.AddBinary(-10, "a")
	b := m.AddBinary(-13, "b")
	c := m.AddBinary(-7, "c")
	d := m.AddBinary(-4, "d")
	m.AddConstr(milp.Expr(a, 3.0, b, 4.0, c, 2.0, d, 1.0), milp.LE, 6, "cap")

	res, err := Solve(context.Background(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
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

func TestPresolveOnlySolve(t *testing.T) {
	// Everything determined by singleton equalities: presolve solves it.
	m := milp.NewModel("trivial")
	x := m.AddVar(0, 10, 2, milp.Integer, "x")
	y := m.AddContinuous(0, 10, 1, "y")
	m.AddConstr(milp.Expr(x, 1.0), milp.EQ, 4, "fx")
	m.AddConstr(milp.Expr(y, 2.0), milp.EQ, 6, "fy")

	res, err := Solve(context.Background(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Nodes != 0 {
		t.Errorf("nodes = %d, want 0 (presolve should finish)", res.Nodes)
	}
	if math.Abs(res.Solution.Obj-11) > 1e-9 {
		t.Errorf("obj = %g, want 11", res.Solution.Obj)
	}
}

func TestObjectiveConstantPropagates(t *testing.T) {
	m := milp.NewModel("const")
	x := m.AddVar(2, 2, 3, milp.Integer, "x") // fixed: contributes 6
	y := m.AddBinary(-1, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, 1.0), milp.LE, 5, "c")
	m.AddObjConstant(100)

	res, err := Solve(context.Background(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Optimal: y = 1 → obj = 100 + 6 − 1 = 105.
	if math.Abs(res.Solution.Obj-105) > 1e-6 {
		t.Errorf("obj = %g, want 105", res.Solution.Obj)
	}
	if math.Abs(res.Bound-105) > 1e-5 {
		t.Errorf("bound = %g, want 105", res.Bound)
	}
}

func TestInfeasibleThroughPresolve(t *testing.T) {
	m := milp.NewModel("inf")
	x := m.AddBinary(0, "x")
	m.AddConstr(milp.Expr(x, 1.0), milp.GE, 3, "imposs")
	res, err := Solve(context.Background(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Solution != nil {
		t.Error("infeasible result carries a solution")
	}
}

func TestInfeasibleWithPresolveDisabled(t *testing.T) {
	m := milp.NewModel("inf2")
	x := m.AddBinary(0, "x")
	y := m.AddBinary(0, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, 1.0), milp.EQ, 1.5, "half")
	res, err := Solve(context.Background(), m, Params{DisablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := milp.NewModel("unb")
	x := m.AddContinuous(0, math.Inf(1), -1, "x")
	y := m.AddContinuous(0, math.Inf(1), 0, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, -1.0), milp.LE, 0, "c")
	res, err := Solve(context.Background(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestPresolveOnOffAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		m := milp.NewModel("agree")
		n := 3 + rng.Intn(4)
		vars := make([]milp.Var, n)
		for j := range vars {
			vars[j] = m.AddVar(0, float64(1+rng.Intn(3)), float64(rng.Intn(9)-4), milp.Integer, "")
		}
		for i := 0; i < 2+rng.Intn(3); i++ {
			e := milp.LinExpr{}
			for _, v := range vars {
				if rng.Float64() < 0.6 {
					e = e.Add(v, float64(rng.Intn(7)-3))
				}
			}
			if e.NumTerms() == 0 {
				continue
			}
			sense := []milp.Sense{milp.LE, milp.GE, milp.EQ}[rng.Intn(3)]
			m.AddConstr(e, sense, float64(rng.Intn(9)-3), "")
		}
		with, err := Solve(context.Background(), m, Params{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := Solve(context.Background(), m, Params{DisablePresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		if (with.Status == StatusOptimal) != (without.Status == StatusOptimal) {
			t.Fatalf("trial %d: with %v vs without %v", trial, with.Status, without.Status)
		}
		if with.Status == StatusOptimal && math.Abs(with.Solution.Obj-without.Solution.Obj) > 1e-5 {
			t.Fatalf("trial %d: obj %g vs %g", trial, with.Solution.Obj, without.Solution.Obj)
		}
	}
}

func TestAnytimeCallbackIncludesConstant(t *testing.T) {
	m := milp.NewModel("anytime")
	m.AddObjConstant(50)
	rng := rand.New(rand.NewSource(52))
	e := milp.LinExpr{}
	for j := 0; j < 14; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*9), "")
		e = e.Add(v, 1+rng.Float64()*9)
	}
	m.AddConstr(e, milp.LE, 22, "cap")

	var seen []Event
	res, err := Solve(context.Background(), m, Params{OnEvent: func(ev Event) {
		if ev.Kind == KindIncumbent || ev.Kind == KindBound {
			seen = append(seen, ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if len(seen) == 0 {
		t.Fatal("no incumbent or bound events")
	}
	final := seen[len(seen)-1]
	if math.Abs(final.Incumbent-res.Solution.Obj) > 1e-5 {
		t.Errorf("callback incumbent %g vs final obj %g (constant lost?)", final.Incumbent, res.Solution.Obj)
	}
}

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
	res, err := Solve(context.Background(), m, Params{TimeLimit: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusTimeLimit {
		// Anytime property: even on timeout there is usually an
		// incumbent from the heuristics, and the bound is valid.
		if res.Solution != nil && res.Solution.Obj < res.Bound-1e-6 {
			t.Errorf("incumbent %g below bound %g", res.Solution.Obj, res.Bound)
		}
	}
}

func TestMaxNodesStatus(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m := milp.NewModel("nodes")
	e := milp.LinExpr{}
	for j := 0; j < 30; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*10), "")
		e = e.Add(v, 1+rng.Float64()*10)
	}
	m.AddConstr(e, milp.LE, 40, "cap")
	res, err := Solve(context.Background(), m, Params{MaxNodes: 2, DisablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNodeLimit && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusTimeLimit:  "time limit",
		StatusNodeLimit:  "node limit",
		StatusNoProgress: "no progress",
	} {
		if st.String() != want {
			t.Errorf("%v", st)
		}
	}
}
