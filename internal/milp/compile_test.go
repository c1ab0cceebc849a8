package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomModel builds a model with wildly scaled coefficients to exercise
// the equilibration.
func randomModel(rng *rand.Rand) (*Model, []float64) {
	m := NewModel("scale")
	n := 2 + rng.Intn(5)
	vals := make([]float64, n)
	for j := 0; j < n; j++ {
		if rng.Intn(2) == 0 {
			m.AddVar(0, float64(1+rng.Intn(3)), rng.NormFloat64(), Integer, "")
			vals[j] = float64(rng.Intn(2))
		} else {
			m.AddContinuous(-5, 5, rng.NormFloat64(), "")
			vals[j] = rng.Float64()*4 - 2
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		e := LinExpr{}
		scale := math.Pow(10, float64(rng.Intn(13)-3)) // coefficients 1e-3 … 1e9
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				e = e.Add(Var(j), rng.NormFloat64()*scale)
			}
		}
		if e.NumTerms() == 0 {
			continue
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		m.AddConstr(e, sense, rng.NormFloat64()*scale, "")
	}
	return m, vals
}

// TestCompileScalingPreservesSemantics: for any assignment, the scaled
// computational form agrees with the model on objective value and row
// activities (after unscaling).
func TestCompileScalingPreservesSemantics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(61))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, vals := randomModel(rng)
		comp := m.Compile()

		// Scale the assignment into computational space.
		scaled := make([]float64, comp.NumStructural)
		for j := range scaled {
			scaled[j] = vals[j] / comp.ColScale[j]
		}
		// Unscale must round-trip.
		back := comp.Unscale(scaled)
		for j := range back {
			if math.Abs(back[j]-vals[j]) > 1e-9*(1+math.Abs(vals[j])) {
				return false
			}
		}
		// Objective invariance (excluding the constant, which stays in
		// the model).
		var scaledObj float64
		for j := 0; j < comp.NumStructural; j++ {
			scaledObj += comp.Problem.C[j] * scaled[j]
		}
		var modelObj float64
		for j := 0; j < m.NumVars(); j++ {
			modelObj += m.ObjCoeff(Var(j)) * vals[j]
		}
		if math.Abs(scaledObj-modelObj) > 1e-6*(1+math.Abs(modelObj)) {
			return false
		}
		// Row activities: scaled row i activity equals the model's
		// constraint LHS divided by the row scale; verify through the
		// sign of violations — a point feasible for the model must
		// have logical values within the slack bounds.
		act := comp.Problem.A.MulVec(append(append([]float64(nil), scaled...), make([]float64, comp.Problem.NumRows())...))
		for i := 0; i < comp.Problem.NumRows(); i++ {
			slack := comp.Problem.B[i] - act[i]
			expr, sense, rhs, _ := m.Constr(i)
			var lhs float64
			expr.Terms(func(v Var, c float64) { lhs += c * vals[v] })
			modelSlack := rhs - lhs
			// Signs must agree (scaling is by a positive factor).
			if slack*modelSlack < -1e-6*(1+math.Abs(modelSlack)) {
				return false
			}
			_ = sense
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCompileIntegerColumnsUnscaled: integer columns keep scale 1 so
// integrality survives compilation.
func TestCompileIntegerColumnsUnscaled(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 50; trial++ {
		m, _ := randomModel(rng)
		comp := m.Compile()
		for j := 0; j < comp.NumStructural; j++ {
			if comp.Integral[j] && comp.ColScale[j] != 1 {
				t.Fatalf("trial %d: integer column %d scaled by %g", trial, j, comp.ColScale[j])
			}
		}
	}
}

// TestCompileEquilibration: after compilation no structural column of a
// continuous variable retains a badly scaled largest coefficient.
func TestCompileEquilibration(t *testing.T) {
	m := NewModel("wide")
	x := m.AddContinuous(0, 1e12, 1, "x")
	y := m.AddBinary(0, "y")
	m.AddConstr(Expr(x, 1.0, y, 5e12), LE, 1e13, "wide")
	comp := m.Compile()
	// Row scaled by 5e12; x's coefficient would become 2e-13 without
	// column scaling — equilibration must bring it near 1.
	got := math.Abs(comp.Problem.A.At(0, 0))
	if got < 0.01 || got > 100 {
		t.Errorf("x coefficient after equilibration = %g, want near 1", got)
	}
}

// TestCompileLeavesUninvertibleColumn: a continuous column whose largest
// entry, after the row pass, is too small for its inverse to be finite keeps
// scale 1 instead of an infinite one.
func TestCompileLeavesUninvertibleColumn(t *testing.T) {
	m := NewModel("tiny")
	x := m.AddContinuous(0, 1, 1, "x")
	y := m.AddBinary(0, "y")
	m.AddConstr(Expr(x, 1e-10, y, 1e300), LE, 1, "wide")
	comp := m.Compile()
	if s := comp.ColScale[x]; s != 1 {
		t.Errorf("x scaled by %g, want 1", s)
	}
	if got := comp.Problem.A.At(0, int(x)); !(got > 0 && got < 1e-300) {
		t.Errorf("x coefficient = %g, want its row-scaled value near 1e-310", got)
	}
}
