package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/milp"
	"milpjoin/internal/simplex"
)

// solveModel runs the solve path of Optimize on a generic model, without
// a MIP start or an injection feed.
func solveModel(t *testing.T, m *milp.Model, opts Options) *Result {
	t.Helper()
	res, err := solve(context.Background(), m, new(milp.Computational), opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGomoryCutClosesClassicGap(t *testing.T) {
	// max x + y s.t. 2x + 2y ≤ 3, x,y ∈ {0,1}: LP optimum 1.5, integer
	// optimum 1. The GMI cut from the fractional row closes the gap.
	build := func() *milp.Model {
		m := milp.NewModel("classic")
		x := m.AddBinary(-1, "x")
		y := m.AddBinary(-1, "y")
		m.AddConstr(milp.Expr(x, 2.0, y, 2.0), milp.LE, 3, "cap")
		return m
	}

	before := build()
	cut, added := addGomoryCuts(before, 1, 16, nil)
	if added == 0 {
		t.Fatal("no cut generated for the classic fractional vertex")
	}
	// The LP relaxation of the cut model must be tighter.
	lpObj := func(m *milp.Model) float64 {
		res, err := simplex.Solve(m.Compile().Problem, nil, simplex.Options{})
		if err != nil || res.Status != simplex.StatusOptimal {
			t.Fatalf("lp solve: %v %v", err, res.Status)
		}
		return res.Obj
	}
	if gotBefore, gotAfter := lpObj(build()), lpObj(cut); gotAfter < gotBefore-1e-9 {
		t.Fatalf("cut loosened the relaxation: %g → %g", gotBefore, gotAfter)
	} else if gotAfter < gotBefore+1e-9 {
		t.Fatalf("cut did not tighten the relaxation: %g → %g", gotBefore, gotAfter)
	}
	// Integer optimum unchanged.
	res := solveModel(t, build(), Options{CutRounds: 1})
	if res.Status != bb.StatusOptimal || math.Abs(res.Solution.Obj-(-1)) > 1e-6 {
		t.Fatalf("with cuts: %v %v, want optimal -1", res.Status, res.Solution)
	}
}

func TestGomoryCutsPreserveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		m := milp.NewModel("rand")
		n := 3 + rng.Intn(4)
		vars := make([]milp.Var, n)
		for j := range vars {
			vars[j] = m.AddVar(0, float64(1+rng.Intn(3)), float64(rng.Intn(9)-4), milp.Integer, "")
		}
		for i := 0; i < 2+rng.Intn(3); i++ {
			e := milp.LinExpr{}
			for _, v := range vars {
				if rng.Float64() < 0.7 {
					e = e.Add(v, float64(rng.Intn(7)-3))
				}
			}
			if e.NumTerms() == 0 {
				continue
			}
			sense := []milp.Sense{milp.LE, milp.GE, milp.EQ}[rng.Intn(3)]
			m.AddConstr(e, sense, float64(rng.Intn(9)-3), "")
		}

		plain := solveModel(t, m, Options{})
		withCuts := solveModel(t, m, Options{CutRounds: 3})
		if (plain.Status == bb.StatusOptimal) != (withCuts.Status == bb.StatusOptimal) {
			t.Fatalf("trial %d: plain %v vs cuts %v", trial, plain.Status, withCuts.Status)
		}
		if plain.Status == bb.StatusOptimal {
			if math.Abs(plain.Solution.Obj-withCuts.Solution.Obj) > 1e-5 {
				t.Fatalf("trial %d: plain %g vs cuts %g", trial, plain.Solution.Obj, withCuts.Solution.Obj)
			}
			// The returned cut-run solution must satisfy the ORIGINAL model.
			if err := m.CheckFeasible(withCuts.Solution.Values, 1e-5); err != nil {
				t.Fatalf("trial %d: cut solution infeasible for original: %v", trial, err)
			}
		}
	}
}

func TestGomoryCutsWithContinuousVariables(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		m := milp.NewModel("mixed")
		x := m.AddVar(0, 5, float64(rng.Intn(7)-3), milp.Integer, "x")
		y := m.AddContinuous(0, 5, rng.NormFloat64(), "y")
		z := m.AddBinary(float64(rng.Intn(5)-2), "z")
		m.AddConstr(milp.Expr(x, 2.0, y, 3.0, z, 1.0), milp.LE, float64(4+rng.Intn(6)), "c1")
		m.AddConstr(milp.Expr(x, 1.0, y, -1.0), milp.GE, float64(rng.Intn(3)-1), "c2")

		plain := solveModel(t, m, Options{})
		withCuts := solveModel(t, m, Options{CutRounds: 2})
		if plain.Status != withCuts.Status {
			t.Fatalf("trial %d: %v vs %v", trial, plain.Status, withCuts.Status)
		}
		if plain.Status == bb.StatusOptimal && math.Abs(plain.Solution.Obj-withCuts.Solution.Obj) > 1e-5 {
			t.Fatalf("trial %d: %g vs %g", trial, plain.Solution.Obj, withCuts.Solution.Obj)
		}
	}
}

func TestCloneModelIndependent(t *testing.T) {
	m := milp.NewModel("orig")
	x := m.AddBinary(1, "x")
	m.AddConstr(milp.Expr(x, 1.0), milp.LE, 1, "c")
	c := cloneModel(m)
	c.AddConstr(milp.Expr(x, 1.0), milp.GE, 0, "extra")
	if m.NumConstrs() != 1 || c.NumConstrs() != 2 {
		t.Errorf("clone not independent: %d / %d", m.NumConstrs(), c.NumConstrs())
	}
	if c.Name != m.Name || c.VarName(x) != "x" {
		t.Error("clone lost metadata")
	}
}
