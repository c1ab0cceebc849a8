package presolve

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/milp"
)

// optimum runs branch and bound on m and returns whether it proved an
// optimum, and then the model-space solution (integral variables rounded)
// and its objective, the model's constant included.
func optimum(t *testing.T, m *milp.Model) (*bb.Result, []float64, float64) {
	t.Helper()
	comp := m.Compile()
	res, err := bb.Solve(context.Background(), comp, bb.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != bb.StatusOptimal {
		return res, nil, 0
	}
	vals := comp.Unscale(res.X[:m.NumVars()])
	for j := range vals {
		if m.IsIntegral(milp.Var(j)) {
			vals[j] = math.Round(vals[j])
		}
	}
	return res, vals, m.EvalObjective(vals)
}

// TestPresolveOnlySolve holds a model that presolve settles without a
// search (every variable fixed by a singleton equality) to the answer
// branch and bound finds for it.
func TestPresolveOnlySolve(t *testing.T) {
	m := milp.NewModel("trivial")
	x := m.AddVar(0, 10, 2, milp.Integer, "x")
	y := m.AddContinuous(0, 10, 1, "y")
	m.AddConstr(milp.Expr(x, 1.0), milp.EQ, 4, "fx")
	m.AddConstr(milp.Expr(y, 2.0), milp.EQ, 6, "fy")

	pre, err := Apply(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Status != StatusSolved {
		t.Fatalf("presolve status = %d, want solved (presolve should finish)", pre.Status)
	}
	vals := pre.FixedSolution()
	if err := m.CheckFeasible(vals, 1e-6); err != nil {
		t.Fatalf("presolve solution infeasible: %v", err)
	}
	if obj := m.EvalObjective(vals); math.Abs(obj-11) > 1e-9 {
		t.Errorf("presolve obj = %g, want 11", obj)
	}

	res, _, obj := optimum(t, m)
	if res.Status != bb.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(obj-11) > 1e-9 {
		t.Errorf("obj = %g, want 11", obj)
	}
}

func TestInfeasibleThroughPresolve(t *testing.T) {
	m := milp.NewModel("inf")
	x := m.AddBinary(0, "x")
	m.AddConstr(milp.Expr(x, 1.0), milp.GE, 3, "imposs")
	pre, err := Apply(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Status != StatusInfeasible {
		t.Errorf("presolve status = %d, want infeasible", pre.Status)
	}
	res, _, _ := optimum(t, m)
	if res.Status != bb.StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
	if res.HasIncumbent {
		t.Error("infeasible result carries a solution")
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
		without, _, withoutObj := optimum(t, m)
		if withOK != (without.Status == bb.StatusOptimal) {
			t.Fatalf("trial %d: optimal with presolve %v vs without %v", trial, withOK, without.Status)
		}
		if withOK && math.Abs(withObj-withoutObj) > 1e-5 {
			t.Fatalf("trial %d: obj %g vs %g", trial, withObj, withoutObj)
		}
	}
}

// solveThroughPresolve presolves m, solves what remains, and returns
// whether an optimum was found and its objective on m, evaluated on the
// postsolved assignment after checking it is feasible for m.
func solveThroughPresolve(t *testing.T, m *milp.Model) (bool, float64) {
	t.Helper()
	pre, err := Apply(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	switch pre.Status {
	case StatusInfeasible:
		return false, 0
	case StatusSolved:
		vals = pre.FixedSolution()
	default:
		res, reduced, obj := optimum(t, pre.Model)
		if res.Status != bb.StatusOptimal {
			return false, 0
		}
		vals = pre.Postsolve(reduced)
		if got := m.EvalObjective(vals); math.Abs(got-obj) > 1e-5 {
			t.Fatalf("postsolved obj %g, reduced model obj %g", got, obj)
		}
	}
	if err := m.CheckFeasible(vals, 1e-6); err != nil {
		t.Fatalf("postsolved solution infeasible: %v", err)
	}
	return true, m.EvalObjective(vals)
}
