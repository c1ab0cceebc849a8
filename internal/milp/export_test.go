package milp

import (
	"math"

	"milpjoin/internal/simplex"
	"milpjoin/internal/sparse"
)

// TripletMatrix is the reference for Compile, written the obvious way and
// sharing no code with it: every row as a dense slice, the two row and
// column equilibration passes over those slices, then the matrix and its
// identity block assembled entry by entry in a sparse.Triplet and
// compressed, which sorts each column and drops exact zeros. It returns the
// whole computational form, so that B, ColScale, L, U and C are checked
// with A.
func (m *Model) TripletMatrix() *Computational {
	n, rows := m.NumVars(), m.NumConstrs()
	a := make([][]float64, rows)
	b := make([]float64, rows)
	for i := range a {
		a[i] = make([]float64, n)
		expr, _, rhs, _ := m.Constr(i)
		expr.Terms(func(v Var, c float64) { a[i][v] += c })
		b[i] = rhs
	}
	colScale := make([]float64, n)
	for j := range colScale {
		colScale[j] = 1
	}
	for pass := 0; pass < 2; pass++ {
		for i, row := range a {
			mx := 1.0
			for _, v := range row {
				if math.Abs(v) > mx {
					mx = math.Abs(v)
				}
			}
			if mx > 1 {
				inv := 1 / mx
				for j := range row {
					row[j] *= inv
				}
				b[i] *= inv
			}
		}
		for j := 0; j < n; j++ {
			if m.IsIntegral(Var(j)) {
				continue
			}
			mx := 0.0
			for _, row := range a {
				if math.Abs(row[j]) > mx {
					mx = math.Abs(row[j])
				}
			}
			if mx == 0 || (mx > 0.5 && mx < 2) || math.IsInf(1/mx, 1) {
				continue
			}
			s := 1 / mx
			for _, row := range a {
				row[j] *= s
			}
			colScale[j] *= s
		}
	}

	tr := sparse.NewTriplet(rows, n+rows)
	l := make([]float64, n+rows)
	u := make([]float64, n+rows)
	c := make([]float64, n+rows)
	for i, row := range a {
		for j, v := range row {
			if v != 0 {
				tr.Add(i, j, v)
			}
		}
		tr.Add(i, n+i, 1)
		switch _, sense, _, _ := m.Constr(i); sense {
		case LE:
			u[n+i] = math.Inf(1)
		case GE:
			l[n+i] = math.Inf(-1)
		}
	}
	integral := make([]bool, n)
	for j := 0; j < n; j++ {
		lb, ub := m.Bounds(Var(j))
		l[j], u[j] = lb/colScale[j], ub/colScale[j]
		c[j] = m.ObjCoeff(Var(j)) * colScale[j]
		integral[j] = m.IsIntegral(Var(j))
	}
	return &Computational{
		Problem:       &simplex.Problem{A: tr.Compress(), B: b, C: c, L: l, U: u},
		NumStructural: n,
		Integral:      integral,
		ColScale:      colScale,
	}
}
