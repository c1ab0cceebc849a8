package core

import (
	"math"

	"milpjoin/internal/milp"
	"milpjoin/internal/simplex"
	"milpjoin/internal/sparse"
)

// addGomoryCuts runs rounds of root-node Gomory mixed-integer (GMI) cut
// generation: solve the LP relaxation, derive cuts from tableau rows of
// fractional integer basics, translate them into model-space constraints
// (eliminating logical columns via their defining rows), and repeat. Every
// GMI cut is valid for all integer-feasible points, so the model's optimum
// is unchanged while its LP relaxation tightens.
//
// Returns the augmented model (the input is not modified) and the number
// of cuts added. onRound, when non-nil, is invoked after each round with
// the 1-based round index, the cuts added that round, and the simplex
// iterations its LP solve took.
func addGomoryCuts(m *milp.Model, rounds, maxCutsPerRound int, onRound func(round, added, iters int)) (*milp.Model, int) {
	work := cloneModel(m)
	total := 0
	for round := 0; round < rounds; round++ {
		added, iters := gomoryRound(work, maxCutsPerRound)
		total += added
		if onRound != nil {
			onRound(round+1, added, iters)
		}
		if added == 0 {
			break
		}
	}
	return work, total
}

// cloneModel copies a model (structure only; models are append-only so a
// rebuild is straightforward).
func cloneModel(m *milp.Model) *milp.Model {
	out := milp.NewModel(m.Name)
	for j := 0; j < m.NumVars(); j++ {
		v := milp.Var(j)
		l, u := m.Bounds(v)
		out.AddVar(l, u, m.ObjCoeff(v), m.VarType(v), m.VarName(v))
	}
	out.AddObjConstant(m.ObjConstant())
	for i := 0; i < m.NumConstrs(); i++ {
		expr, sense, rhs, name := m.Constr(i)
		out.AddConstr(expr, sense, rhs, name)
	}
	return out
}

// gomoryRound adds up to maxCuts GMI cuts derived from the current LP
// relaxation optimum; returns the number added and the LP's simplex
// iteration count.
func gomoryRound(m *milp.Model, maxCuts int) (int, int) {
	comp := m.Compile()
	prob := comp.Problem
	res, err := simplex.Solve(prob, nil, simplex.Options{})
	if err != nil || res.Status != simplex.StatusOptimal {
		return 0, 0
	}

	nCols := prob.NumCols()
	nRows := prob.NumRows()
	if nRows == 0 {
		return 0, res.Iters
	}

	// Refactorize the optimal basis to answer BTRAN queries for tableau
	// rows.
	tr := sparse.NewTriplet(nRows, nRows)
	for k, j := range res.Basis.Head {
		rows, vals := prob.A.Col(j)
		for p, i := range rows {
			tr.Add(i, k, vals[p])
		}
	}
	lu, err := sparse.Factorize(tr.Compress(), sparse.FactorOptions{})
	if err != nil {
		return 0, res.Iters
	}
	scratch := make([]float64, nRows)
	rowMajor := prob.A.Transpose() // row i of A = column i of the transpose

	const (
		fracTol = 1e-5
		zeroTol = 1e-9
	)
	added := 0
	for r, jB := range res.Basis.Head {
		if added >= maxCuts {
			break
		}
		// Only structural integer basics with fractional values.
		if jB >= comp.NumStructural || !comp.Integral[jB] {
			continue
		}
		beta := res.X[jB]
		f0 := beta - math.Floor(beta)
		if f0 < fracTol || f0 > 1-fracTol {
			continue
		}

		// Tableau row r: rho = B⁻ᵀ e_r, alpha_j = rhoᵀ a_j.
		rho := make([]float64, nRows)
		rho[r] = 1
		lu.SolveTransposeInPlace(rho, scratch)

		// Build the GMI cut over shifted nonbasic variables:
		// Σ γ_j w_j ≥ 1, then unshift into computational space.
		cutCoef := make([]float64, nCols) // on computational variables
		rhs := 1.0
		ok := true
		for j := 0; j < nCols && ok; j++ {
			st := res.Basis.Status[j]
			if st == simplex.Basic {
				continue
			}
			alpha := prob.A.ColDot(j, rho)
			if math.Abs(alpha) < zeroTol {
				continue
			}
			var ahat, shift, sign float64
			switch st {
			case simplex.NonbasicLower:
				ahat, shift, sign = alpha, prob.L[j], 1
			case simplex.NonbasicUpper:
				ahat, shift, sign = -alpha, prob.U[j], -1
			default:
				ok = false // free nonbasic: GMI not applicable
				continue
			}
			if math.IsInf(shift, 0) {
				ok = false
				continue
			}
			var gamma float64
			if j < comp.NumStructural && comp.Integral[j] {
				fj := ahat - math.Floor(ahat)
				if fj <= f0 {
					gamma = fj / f0
				} else {
					gamma = (1 - fj) / (1 - f0)
				}
			} else {
				if ahat >= 0 {
					gamma = ahat / f0
				} else {
					gamma = -ahat / (1 - f0)
				}
			}
			if gamma < zeroTol {
				continue
			}
			// w_j = sign·(x_j − shift·sign)… concretely:
			// lower: w = x − l → γ·x ≥ …, rhs += γ·l
			// upper: w = u − x → −γ·x ≥ …, rhs -= γ·u
			cutCoef[j] += gamma * sign
			rhs += gamma * shift * sign
		}
		if !ok {
			continue
		}

		// Eliminate logical columns: s_i = b_i − Σ_k A_ik·x_k (the
		// logical's defining row, structural part only).
		structCoef := make([]float64, comp.NumStructural)
		cutRHS := rhs
		for j := 0; j < comp.NumStructural; j++ {
			structCoef[j] = cutCoef[j]
		}
		for i := 0; i < nRows; i++ {
			c := cutCoef[comp.NumStructural+i]
			if c == 0 {
				continue
			}
			// c·s_i = c·b_i − c·Σ A_ik x_k  (structural k only).
			cutRHS -= c * prob.B[i]
			cols, vals := rowMajor.Col(i)
			for p, k := range cols {
				if k < comp.NumStructural {
					structCoef[k] -= c * vals[p]
				}
			}
		}

		// Map scaled structural coefficients back to model variables
		// (x_scaled = x_model / ColScale ⇒ coefficient /= ColScale).
		expr := milp.LinExpr{}
		maxC, minC := 0.0, math.Inf(1)
		for j := 0; j < comp.NumStructural; j++ {
			c := structCoef[j] / comp.ColScale[j]
			if math.Abs(c) < zeroTol {
				continue
			}
			expr = expr.Add(milp.Var(j), c)
			if a := math.Abs(c); a > maxC {
				maxC = a
			}
			if a := math.Abs(c); a < minC {
				minC = a
			}
		}
		if expr.NumTerms() == 0 || maxC/minC > 1e10 || maxC > 1e12 {
			continue // numerically useless cut
		}
		// Dense cuts ruin basis sparsity and slow every later LP far
		// more than their bound improvement is worth; keep sparse ones
		// (small models are exempt — any cut there is cheap).
		densityLimit := comp.NumStructural / 4
		if densityLimit < 40 {
			densityLimit = 40
		}
		if expr.NumTerms() > densityLimit {
			continue
		}
		m.AddConstr(expr, milp.GE, cutRHS, "gomory")
		added++
	}
	return added, res.Iters
}
