// Package presolve shrinks MILP models before branch-and-bound: it removes
// fixed variables, turns singleton rows into bounds, drops empty and
// redundant rows, propagates activity bounds, and rounds integer bounds.
// Reductions are recorded so solutions of the reduced model can be mapped
// back to the original variable space.
//
// The solve path does not use it: on join-ordering encodings it removes no
// row and no column, and branch and bound on its output repeats the search
// on the unreduced model exactly (TestReplayMatchesProduction). Its one
// caller is the benchmark's staged replay in bench/solver_trace.go, and it
// goes when that replay drops its presolve span.
package presolve

import (
	"fmt"
	"math"
	"time"

	"milpjoin/internal/milp"
)

// Status summarises the outcome of presolve.
type Status int

const (
	// StatusReduced means a (possibly smaller) equivalent model remains.
	StatusReduced Status = iota
	// StatusInfeasible means presolve proved the model infeasible.
	StatusInfeasible
	// StatusSolved means presolve fixed every variable; the solution is
	// fully determined.
	StatusSolved
)

// Options tune presolve behaviour.
type Options struct {
	// MaxRounds bounds the number of propagation sweeps (default 10).
	MaxRounds int
	// FeasTol is the feasibility tolerance (default 1e-7).
	FeasTol float64
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10
	}
	if o.FeasTol <= 0 {
		o.FeasTol = 1e-7
	}
	return o
}

// Result carries the reduced model and the data needed for postsolve.
type Result struct {
	Status Status
	// Model is the reduced model (valid when Status == StatusReduced).
	Model *milp.Model
	// Rounds is the number of propagation sweeps performed.
	Rounds int
	// RowsRemoved and ColsRemoved count the constraints and variables
	// eliminated relative to the input model (everything, when presolve
	// solved the model outright).
	RowsRemoved, ColsRemoved int
	// Elapsed is the presolve wall-clock time.
	Elapsed time.Duration

	// origVars is the original variable count.
	origVars int
	// fixedValue[j] holds the value of original variable j if fixed by
	// presolve; valid where fixed[j] is true.
	fixedValue []float64
	fixed      []bool
	// newIndex[j] is the column of original variable j in the reduced
	// model, or -1 if eliminated.
	newIndex []int
}

// Postsolve maps a solution of the reduced model back to the original
// variable space.
func (r *Result) Postsolve(reduced []float64) []float64 {
	out := make([]float64, r.origVars)
	for j := 0; j < r.origVars; j++ {
		if r.fixed[j] {
			out[j] = r.fixedValue[j]
		} else if k := r.newIndex[j]; k >= 0 {
			out[j] = reduced[k]
		}
	}
	return out
}

// FixedSolution returns the fully determined solution when Status is
// StatusSolved.
func (r *Result) FixedSolution() []float64 {
	return r.Postsolve(nil)
}

// Reduce maps an original-space assignment into the reduced model's
// variable space (the inverse of Postsolve for surviving variables).
// Values of eliminated variables are dropped; the caller is responsible
// for the assignment being consistent with the fixings.
func (r *Result) Reduce(original []float64) []float64 {
	if r.Model == nil {
		return nil
	}
	out := make([]float64, r.Model.NumVars())
	for j := 0; j < r.origVars; j++ {
		if k := r.newIndex[j]; k >= 0 {
			out[k] = original[j]
		}
	}
	return out
}

// internal row representation, normalised to sense ≤ or =.
type row struct {
	vars  []int
	coefs []float64
	eq    bool // true for =, false for ≤
	rhs   float64
	live  bool
}

// Apply presolves the model.
func Apply(m *milp.Model, opts Options) (*Result, error) {
	start := time.Now()
	res, err := apply(m, opts)
	if res != nil {
		res.Elapsed = time.Since(start)
		switch res.Status {
		case StatusReduced:
			res.RowsRemoved = m.NumConstrs() - res.Model.NumConstrs()
			res.ColsRemoved = m.NumVars() - res.Model.NumVars()
		case StatusSolved:
			res.RowsRemoved = m.NumConstrs()
			res.ColsRemoved = m.NumVars()
		}
	}
	return res, err
}

func apply(m *milp.Model, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := m.NumVars()

	lb := make([]float64, n)
	ub := make([]float64, n)
	isInt := make([]bool, n)
	for j := 0; j < n; j++ {
		lb[j], ub[j] = m.Bounds(milp.Var(j))
		isInt[j] = m.IsIntegral(milp.Var(j))
	}

	rows := loadRows(m)
	res := &Result{
		origVars:   n,
		fixedValue: make([]float64, n),
		fixed:      make([]bool, n),
		newIndex:   make([]int, n),
	}

	tol := opts.FeasTol
	roundIntBounds(lb, ub, isInt, tol)
	for j := 0; j < n; j++ {
		if lb[j] > ub[j]+tol {
			res.Status = StatusInfeasible
			return res, nil
		}
	}

	changed := true
	for res.Rounds = 0; changed && res.Rounds < opts.MaxRounds; res.Rounds++ {
		changed = false
		for ri := range rows {
			r := &rows[ri]
			if !r.live {
				continue
			}
			// Drop terms whose variable became fixed.
			compactRow(r, lb, ub, tol)

			switch len(r.vars) {
			case 0:
				if r.rhs < -tol || (r.eq && r.rhs > tol) {
					res.Status = StatusInfeasible
					return res, nil
				}
				r.live = false
				changed = true
				continue
			case 1:
				if singletonToBound(r, lb, ub, isInt, tol) {
					res.Status = StatusInfeasible
					return res, nil
				}
				r.live = false
				changed = true
				continue
			}

			st, ch := propagateRow(r, lb, ub, isInt, tol)
			if st == StatusInfeasible {
				res.Status = StatusInfeasible
				return res, nil
			}
			if ch {
				changed = true
			}
		}
		for j := 0; j < n; j++ {
			if lb[j] > ub[j]+tol {
				res.Status = StatusInfeasible
				return res, nil
			}
		}
	}

	// Fix variables with collapsed bounds; record for postsolve.
	for j := 0; j < n; j++ {
		if !res.fixed[j] && ub[j]-lb[j] <= tol {
			v := lb[j]
			if isInt[j] {
				v = math.Round(v)
			}
			res.fixed[j] = true
			res.fixedValue[j] = v
		}
	}

	// Build the reduced model over surviving variables and rows.
	reduced := milp.NewModel(m.Name + "/presolved")
	k := 0
	for j := 0; j < n; j++ {
		if res.fixed[j] {
			res.newIndex[j] = -1
			continue
		}
		res.newIndex[j] = k
		vt := milp.Continuous
		if isInt[j] {
			vt = milp.Integer
			if lb[j] >= 0 && ub[j] <= 1 {
				vt = milp.Binary
			}
		}
		reduced.AddVar(lb[j], ub[j], m.ObjCoeff(milp.Var(j)), vt, m.VarName(milp.Var(j)))
		k++
	}
	reduced.AddObjConstant(m.ObjConstant())
	for j := 0; j < n; j++ {
		if res.fixed[j] {
			reduced.AddObjConstant(m.ObjCoeff(milp.Var(j)) * res.fixedValue[j])
		}
	}

	kept := 0
	for ri := range rows {
		r := &rows[ri]
		if !r.live {
			continue
		}
		compactRow(r, lb, ub, tol)
		if len(r.vars) == 0 {
			if r.rhs < -tol || (r.eq && r.rhs > tol) {
				res.Status = StatusInfeasible
				return res, nil
			}
			continue
		}
		// Redundancy: a ≤ row whose maximum activity cannot exceed rhs.
		if !r.eq {
			if maxAct, ok := rowMaxActivity(r, lb, ub); ok && maxAct <= r.rhs+tol {
				continue
			}
		}
		expr := milp.LinExpr{}
		ok := true
		for t, j := range r.vars {
			nj := res.newIndex[j]
			if nj < 0 {
				ok = false
				break
			}
			expr = expr.Add(milp.Var(nj), r.coefs[t])
		}
		if !ok {
			return nil, fmt.Errorf("presolve: internal error, fixed variable survived compaction")
		}
		sense := milp.LE
		if r.eq {
			sense = milp.EQ
		}
		reduced.AddConstr(expr, sense, r.rhs, "")
		kept++
	}

	if reduced.NumVars() == 0 {
		if kept > 0 {
			// All variables fixed but constraints remained; they were
			// checked during compaction, so this cannot hold real
			// content — treat as solved.
			res.Status = StatusSolved
			return res, nil
		}
		res.Status = StatusSolved
		return res, nil
	}
	res.Status = StatusReduced
	res.Model = reduced
	return res, nil
}

// loadRows converts model constraints into normalised internal rows
// (≥ rows are negated into ≤).
func loadRows(m *milp.Model) []row {
	rows := make([]row, 0, m.NumConstrs())
	for i := 0; i < m.NumConstrs(); i++ {
		expr, sense, rhs, _ := m.Constr(i)
		r := row{live: true, rhs: rhs, eq: sense == milp.EQ}
		flip := sense == milp.GE
		expr.Terms(func(v milp.Var, c float64) {
			if flip {
				c = -c
			}
			r.vars = append(r.vars, int(v))
			r.coefs = append(r.coefs, c)
		})
		if flip {
			r.rhs = -rhs
		}
		rows = append(rows, r)
	}
	return rows
}

// compactRow substitutes variables whose bounds have collapsed (treating
// them as fixed at lb) into the rhs and removes their terms.
func compactRow(r *row, lb, ub []float64, tol float64) {
	out := 0
	for t, j := range r.vars {
		if ub[j]-lb[j] <= tol {
			r.rhs -= r.coefs[t] * lb[j]
			continue
		}
		r.vars[out] = j
		r.coefs[out] = r.coefs[t]
		out++
	}
	r.vars = r.vars[:out]
	r.coefs = r.coefs[:out]
}

// singletonToBound converts a single-variable row into variable bounds.
// Returns true when the implied bounds are infeasible.
func singletonToBound(r *row, lb, ub []float64, isInt []bool, tol float64) bool {
	j := r.vars[0]
	a := r.coefs[0]
	v := r.rhs / a
	if r.eq {
		if v < lb[j]-tol || v > ub[j]+tol {
			return true
		}
		if isInt[j] && math.Abs(v-math.Round(v)) > tol {
			return true
		}
		lb[j], ub[j] = v, v
		return false
	}
	if a > 0 { // x ≤ rhs/a
		if v < ub[j] {
			ub[j] = v
		}
	} else { // x ≥ rhs/a
		if v > lb[j] {
			lb[j] = v
		}
	}
	if isInt[j] {
		roundOneIntBound(j, lb, ub, tol)
	}
	return lb[j] > ub[j]+tol
}

// propagateRow tightens variable bounds from row activity. Returns the
// feasibility status and whether any bound changed.
func propagateRow(r *row, lb, ub []float64, isInt []bool, tol float64) (Status, bool) {
	// Minimum and maximum activity with counts of infinite contributions.
	var minAct, maxAct float64
	minInf, maxInf := 0, 0
	for t, j := range r.vars {
		a := r.coefs[t]
		var lo, hi float64
		if a > 0 {
			lo, hi = a*lb[j], a*ub[j]
		} else {
			lo, hi = a*ub[j], a*lb[j]
		}
		if math.IsInf(lo, -1) {
			minInf++
		} else {
			minAct += lo
		}
		if math.IsInf(hi, 1) {
			maxInf++
		} else {
			maxAct += hi
		}
	}

	scale := 1 + math.Abs(r.rhs)
	if minInf == 0 && minAct > r.rhs+tol*scale {
		return StatusInfeasible, false
	}
	if r.eq && maxInf == 0 && maxAct < r.rhs-tol*scale {
		return StatusInfeasible, false
	}

	changed := false
	for t, j := range r.vars {
		a := r.coefs[t]
		// Residual minimum activity excluding j.
		var lo float64
		if a > 0 {
			lo = a * lb[j]
		} else {
			lo = a * ub[j]
		}
		residMinOK := minInf == 0 || (minInf == 1 && math.IsInf(lo, -1))
		if residMinOK {
			resid := minAct
			if !math.IsInf(lo, -1) {
				resid -= lo
			}
			// a_j x_j ≤ rhs − resid.
			limit := r.rhs - resid
			if a > 0 {
				nb := limit / a
				if nb < ub[j]-tol {
					ub[j] = nb
					changed = true
					if isInt[j] {
						roundOneIntBound(j, lb, ub, tol)
					}
				}
			} else {
				nb := limit / a
				if nb > lb[j]+tol {
					lb[j] = nb
					changed = true
					if isInt[j] {
						roundOneIntBound(j, lb, ub, tol)
					}
				}
			}
		}
		if r.eq {
			// For equalities also use maximum activity: a_j x_j ≥ rhs − residMax.
			var hi float64
			if a > 0 {
				hi = a * ub[j]
			} else {
				hi = a * lb[j]
			}
			residMaxOK := maxInf == 0 || (maxInf == 1 && math.IsInf(hi, 1))
			if residMaxOK {
				resid := maxAct
				if !math.IsInf(hi, 1) {
					resid -= hi
				}
				limit := r.rhs - resid
				if a > 0 {
					nb := limit / a
					if nb > lb[j]+tol {
						lb[j] = nb
						changed = true
						if isInt[j] {
							roundOneIntBound(j, lb, ub, tol)
						}
					}
				} else {
					nb := limit / a
					if nb < ub[j]-tol {
						ub[j] = nb
						changed = true
						if isInt[j] {
							roundOneIntBound(j, lb, ub, tol)
						}
					}
				}
			}
		}
	}
	return StatusReduced, changed
}

// rowMaxActivity returns the maximum activity of a row if finite.
func rowMaxActivity(r *row, lb, ub []float64) (float64, bool) {
	var maxAct float64
	for t, j := range r.vars {
		a := r.coefs[t]
		var hi float64
		if a > 0 {
			hi = a * ub[j]
		} else {
			hi = a * lb[j]
		}
		if math.IsInf(hi, 1) {
			return 0, false
		}
		maxAct += hi
	}
	return maxAct, true
}

func roundIntBounds(lb, ub []float64, isInt []bool, tol float64) {
	for j := range lb {
		if isInt[j] {
			roundOneIntBound(j, lb, ub, tol)
		}
	}
}

func roundOneIntBound(j int, lb, ub []float64, tol float64) {
	if !math.IsInf(lb[j], -1) {
		lb[j] = math.Ceil(lb[j] - tol)
	}
	if !math.IsInf(ub[j], 1) {
		ub[j] = math.Floor(ub[j] + tol)
	}
}
