package simplex

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// microLPs are LPs small enough to check by hand, each with its optimum
// written out: x is the structural part of the solution, z its objective.
// Rows take a sense; buildProblem appends one logical column per row.
var microLPs = []struct {
	name   string
	rows   [][]float64
	sense  []string
	rhs, c []float64
	l, u   []float64
	status Status
	z      float64
	x      []float64
}{
	{
		// min −x₁ − 2x₂ s.t. −x₁ + 2x₂ + x₃ = 4, 3x₁ + x₂ + x₄ = 9, x ≥ 0.
		// At x₁ = 2, x₂ = 3 both rows hold with x₃ = x₄ = 0, and y = (−5/7,
		// −3/7) prices every column nonnegatively.
		name:   "standard form",
		rows:   [][]float64{{-1, 2, 1, 0}, {3, 1, 0, 1}},
		sense:  []string{"=", "="},
		rhs:    []float64{4, 9},
		c:      []float64{-1, -2, 0, 0},
		l:      []float64{0, 0, 0, 0},
		u:      []float64{pInf(), pInf(), pInf(), pInf()},
		status: StatusOptimal, z: -8, x: []float64{2, 3, 0, 0},
	},
	{
		// min −x₁ − x₂ s.t. x₁ ≤ 1, x₂ ≤ 1, x₁ + x₂ ≤ 2: three rows meet at
		// (1, 1) in two dimensions, so the optimal vertex is degenerate.
		name:   "degenerate vertex",
		rows:   [][]float64{{1, 0}, {0, 1}, {1, 1}},
		sense:  []string{"<=", "<=", "<="},
		rhs:    []float64{1, 1, 2},
		c:      []float64{-1, -1},
		l:      []float64{0, 0},
		u:      []float64{pInf(), pInf()},
		status: StatusOptimal, z: -2, x: []float64{1, 1},
	},
	{
		// min −2x₁ − x₂ s.t. x₁ + x₂ ≤ 3, 0 ≤ x₁, x₂ ≤ 2: x₁ goes to its
		// upper bound, x₂ takes the rest of the row.
		name:   "upper bounds",
		rows:   [][]float64{{1, 1}},
		sense:  []string{"<="},
		rhs:    []float64{3},
		c:      []float64{-2, -1},
		l:      []float64{0, 0},
		u:      []float64{2, 2},
		status: StatusOptimal, z: -5, x: []float64{2, 1},
	},
	{
		// min x₁ + x₂ s.t. x₁ + 2x₂ ≥ 4, 3x₁ + x₂ ≥ 6, x ≥ 0: the slack
		// basis is infeasible and dual feasible, so PreferDual runs the dual
		// loop from it. Of the vertices (0, 6), (8/5, 6/5) and (4, 0), the
		// middle one costs 14/5.
		name:   "covering",
		rows:   [][]float64{{1, 2}, {3, 1}},
		sense:  []string{">=", ">="},
		rhs:    []float64{4, 6},
		c:      []float64{1, 1},
		l:      []float64{0, 0},
		u:      []float64{pInf(), pInf()},
		status: StatusOptimal, z: 14.0 / 5, x: []float64{8.0 / 5, 6.0 / 5},
	},
	{
		// x₁ + x₂ ≤ 1 and x₁ + x₂ ≥ 3 cannot both hold.
		name:   "infeasible",
		rows:   [][]float64{{1, 1}, {1, 1}},
		sense:  []string{"<=", ">="},
		rhs:    []float64{1, 3},
		c:      []float64{1, 1},
		l:      []float64{0, 0},
		u:      []float64{pInf(), pInf()},
		status: StatusInfeasible,
	},
	{
		// min −x₁ s.t. x₁ − x₂ ≤ 1, x ≥ 0: x₁ = 1 + t, x₂ = t is feasible
		// for every t ≥ 0 and costs −1 − t.
		name:   "unbounded",
		rows:   [][]float64{{1, -1}},
		sense:  []string{"<="},
		rhs:    []float64{1},
		c:      []float64{-1, 0},
		l:      []float64{0, 0},
		u:      []float64{pInf(), pInf()},
		status: StatusUnbounded,
	},
}

// logicalBasis is the slack basis of p: every structural column at its lower
// bound, every logical column basic.
func logicalBasis(p *Problem) *Basis {
	m, n := p.NumRows(), p.NumCols()
	b := &Basis{Status: make([]VarStatus, n), Head: make([]int, m)}
	for j := 0; j < n-m; j++ {
		b.Status[j] = NonbasicLower
	}
	for i := range b.Head {
		b.Head[i] = n - m + i
		b.Status[n-m+i] = Basic
	}
	return b
}

// TestMicroLPs solves each micro-LP primal (cold) and dual (PreferDual from
// the slack basis), with the eta pull of every BTRAN forced sparse and
// forced dense, and holds it to its written-out status, z and x. The two
// paths must agree on every Result field.
func TestMicroLPs(t *testing.T) {
	pulls := 0 // BTRANs through a non-empty eta file
	for _, lp := range microLPs {
		for _, dual := range []bool{false, true} {
			var results [2]*Result
			for i, sparse := range []bool{false, true} {
				label := fmt.Sprintf("%s dual=%v sparse=%v", lp.name, dual, sparse)
				p := buildProblem(lp.rows, lp.sense, lp.rhs, lp.c, lp.l, lp.u)
				var warm *Basis
				if dual {
					warm = logicalBasis(p)
				}
				btranHook = func(*basisFactor, []float64, bool) bool { pulls++; return sparse }
				res, err := Solve(p, warm, Options{PreferDual: dual})
				btranHook = nil
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Status != lp.status {
					t.Fatalf("%s: status %v, want %v", label, res.Status, lp.status)
				}
				if lp.status == StatusOptimal {
					if math.Abs(res.Obj-lp.z) > 1e-9 {
						t.Errorf("%s: z = %v, want %v", label, res.Obj, lp.z)
					}
					for j, want := range lp.x {
						if math.Abs(res.X[j]-want) > 1e-9 {
							t.Errorf("%s: x%d = %v, want %v", label, j+1, res.X[j], want)
						}
					}
					checkKKT(t, p, res)
				}
				results[i] = cloneResult(res)
			}
			requireSameResult(t, fmt.Sprintf("%s dual=%v", lp.name, dual), results[1], results[0])
		}
	}
	if pulls == 0 {
		t.Fatal("no BTRAN went through an eta file; forcing a path tested nothing")
	}
}

// cloneResult copies everything a Solve returns out of the workspace.
func cloneResult(res *Result) *Result {
	c := *res
	c.X, c.Y = slices.Clone(res.X), slices.Clone(res.Y)
	c.Basis = res.Basis.Clone()
	return &c
}

// requireSameResult fails unless two results agree on every field: floats
// by value (so a zero may differ in sign), counters and the basis exactly.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Status != want.Status || got.Obj != want.Obj || got.Iters != want.Iters ||
		got.Refactors != want.Refactors || got.Pricing != want.Pricing {
		t.Fatalf("%s: %+v, want %+v", label, *got, *want)
	}
	if !slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y) {
		t.Fatalf("%s: X or Y differs", label)
	}
	if !slices.Equal(got.Basis.Head, want.Basis.Head) || !slices.Equal(got.Basis.Status, want.Basis.Status) {
		t.Fatalf("%s: basis differs", label)
	}
}
