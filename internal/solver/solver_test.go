package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
	"milpjoin/internal/presolve"
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

// TestPresolveOnlySolve holds a model that presolve settles without a
// search (every variable fixed by a singleton equality) to the answer
// Solve finds for it.
func TestPresolveOnlySolve(t *testing.T) {
	m := milp.NewModel("trivial")
	x := m.AddVar(0, 10, 2, milp.Integer, "x")
	y := m.AddContinuous(0, 10, 1, "y")
	m.AddConstr(milp.Expr(x, 1.0), milp.EQ, 4, "fx")
	m.AddConstr(milp.Expr(y, 2.0), milp.EQ, 6, "fy")

	pre, err := presolve.Apply(m, presolve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Status != presolve.StatusSolved {
		t.Fatalf("presolve status = %d, want solved (presolve should finish)", pre.Status)
	}
	vals := pre.FixedSolution()
	if err := m.CheckFeasible(vals, 1e-6); err != nil {
		t.Fatalf("presolve solution infeasible: %v", err)
	}
	if obj := m.EvalObjective(vals); math.Abs(obj-11) > 1e-9 {
		t.Errorf("presolve obj = %g, want 11", obj)
	}

	res, err := Solve(context.Background(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
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
	if res.Status != bb.StatusOptimal {
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
	if res.Status != bb.StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Solution != nil {
		t.Error("infeasible result carries a solution")
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
	if res.Status != bb.StatusUnbounded {
		t.Fatalf("status = %v", res.Status)
	}
}

// TestPresolveOnOffAgree solves random small MILPs directly and through
// presolve (solving the reduced model and mapping its answer back), and
// checks both routes agree on feasibility and the optimal objective.
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
		withOK, withObj := solveThroughPresolve(t, m)
		without, err := Solve(context.Background(), m, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if withOK != (without.Status == bb.StatusOptimal) {
			t.Fatalf("trial %d: optimal with presolve %v vs without %v", trial, withOK, without.Status)
		}
		if withOK && math.Abs(withObj-without.Solution.Obj) > 1e-5 {
			t.Fatalf("trial %d: obj %g vs %g", trial, withObj, without.Solution.Obj)
		}
	}
}

// solveThroughPresolve presolves m, solves what remains, and returns
// whether an optimum was found and its objective on m, evaluated on the
// postsolved assignment after checking it is feasible for m.
func solveThroughPresolve(t *testing.T, m *milp.Model) (bool, float64) {
	t.Helper()
	pre, err := presolve.Apply(m, presolve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	switch pre.Status {
	case presolve.StatusInfeasible:
		return false, 0
	case presolve.StatusSolved:
		vals = pre.FixedSolution()
	default:
		res, err := Solve(context.Background(), pre.Model, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != bb.StatusOptimal {
			return false, 0
		}
		vals = pre.Postsolve(res.Solution.Values)
		if obj := m.EvalObjective(vals); math.Abs(obj-res.Solution.Obj) > 1e-5 {
			t.Fatalf("postsolved obj %g, reduced model obj %g", obj, res.Solution.Obj)
		}
	}
	if err := m.CheckFeasible(vals, 1e-6); err != nil {
		t.Fatalf("postsolved solution infeasible: %v", err)
	}
	return true, m.EvalObjective(vals)
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

	var seen []obs.Event
	res, err := Solve(context.Background(), m, Params{OnEvent: func(ev obs.Event) {
		if ev.Kind == obs.KindIncumbent || ev.Kind == obs.KindBound {
			seen = append(seen, ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
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
	if res.Status == bb.StatusTimeLimit {
		// Anytime property: even on timeout there is usually an
		// incumbent from an integral node LP, and the bound is valid.
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
	res, err := Solve(context.Background(), m, Params{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusNodeLimit && res.Status != bb.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[bb.Status]string{
		bb.StatusOptimal:    "optimal",
		bb.StatusInfeasible: "infeasible",
		bb.StatusUnbounded:  "unbounded",
		bb.StatusTimeLimit:  "time limit",
		bb.StatusNodeLimit:  "node limit",
		bb.StatusNoProgress: "no progress",
	} {
		if st.String() != want {
			t.Errorf("%v", st)
		}
	}
}
