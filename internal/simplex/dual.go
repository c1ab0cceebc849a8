package simplex

import (
	"math"
	"slices"
)

// dualOutcome classifies how the dual simplex loop ended.
type dualOutcome int

const (
	// dualDone: the basis became primal feasible (caller continues with
	// primal phase 2, which typically certifies optimality immediately).
	dualDone dualOutcome = iota
	// dualInfeasible: a row proved the problem infeasible.
	dualInfeasible
	// dualGiveUp: dual feasibility was lost or the budget ran out — the
	// caller falls back to the composite primal phase 1.
	dualGiveUp
	// dualAborted: the stop flag.
	dualAborted
)

// dualFeasible reports whether the current reduced costs are sign-
// consistent with the nonbasic statuses (within the optimality tolerance).
// It prices all columns with y = B⁻ᵀ·c_B.
func (s *solver) dualFeasible() bool {
	s.factor.btran(s.cost, s.y)
	rowP := s.factor.rowP()
	for j := 0; j < s.n; j++ {
		if s.status[j] == Basic || s.p.U[j]-s.p.L[j] <= 0 {
			continue
		}
		d := s.p.C[j] - colDot(s.p.A, rowP, j, s.y)
		switch s.status[j] {
		case NonbasicLower:
			if d < -1e-6 {
				return false
			}
		case NonbasicUpper:
			if d > 1e-6 {
				return false
			}
		case NonbasicFree:
			if math.Abs(d) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// dualCandidate is one eligible entering column in the long-step ratio test.
type dualCandidate struct {
	j     int
	ratio float64 // |d_j| / |alpha_j|
	alpha float64
}

// dualLoop runs bounded-variable dual simplex with the long-step
// (bound-flipping) ratio test: while the basis is primal infeasible but
// dual feasible, the most-violating basic variable is driven onto its
// violated bound. Candidates whose own range is exhausted before the
// violation is repaired are bound-flipped in bulk (one combined FTRAN);
// the first candidate that can absorb the rest pivots into the basis.
//
// This is the method of choice for branch-and-bound node solves, where a
// parent-optimal basis becomes primal infeasible through one bound change.
// Assumes dual feasibility holds on entry.
//
// Column work is restricted to a priced candidate list: nbList holds the
// nonbasic non-fixed columns (the only ones that can enter), maintained
// incrementally across pivots, so the per-iteration alpha and reduced-cost
// updates skip basic and fixed columns entirely.
func (s *solver) dualLoop() dualOutcome {
	ws := s.ws
	rho := ws.rho         // ρ = B⁻ᵀ·e_leave in pivot-row coordinates (m)
	d := ws.d             // reduced costs, maintained incrementally (n)
	alpha := ws.alpha     // pivot row entries (n)
	flipAcc := ws.flipAcc // accumulated A·Δx over flips (m)
	nbList := ws.nbList[:0]
	nbPos := ws.nbPos

	reprice := func() {
		s.factor.btran(s.cost, s.y)
		rowP := s.factor.rowP()
		nbList = nbList[:0]
		for j := 0; j < s.n; j++ {
			if s.status[j] == Basic {
				d[j] = 0
				continue
			}
			d[j] = s.p.C[j] - colDot(s.p.A, rowP, j, s.y)
			if s.p.U[j]-s.p.L[j] > 0 {
				nbPos[j] = len(nbList)
				nbList = append(nbList, j)
			}
		}
		ws.nbList = nbList
		s.pricing.ScannedCols += s.n
		s.pricing.TotalCols += s.n
	}
	reprice()

	budget := s.m + 200
	startIters := s.iters
	cands := ws.cands[:0]

	for {
		if s.iters >= s.opts.MaxIter || s.iters-startIters > budget {
			return dualGiveUp
		}
		if s.aborted() {
			return dualAborted
		}
		if s.factor.numEtas() >= s.opts.RefactorEvery {
			if err := s.refactorizeOrRepair(); err != nil {
				return dualGiveUp
			}
			reprice()
		}

		// Leaving row: the basic variable with the largest violation.
		leave := -1
		var worst float64
		var delta float64 // +1: below lower (must rise); −1: above upper
		for k, j := range s.head {
			if v := s.p.L[j] - s.x[j]; v > s.tolL[j] && v > worst {
				worst, leave, delta = v, k, 1
			}
			if v := s.x[j] - s.p.U[j]; v > s.tolU[j] && v > worst {
				worst, leave, delta = v, k, -1
			}
		}
		if leave < 0 {
			if !s.refreshed {
				if err := s.refactorizeOrRepair(); err != nil {
					return dualGiveUp
				}
				s.refreshed = true
				continue
			}
			return dualDone
		}

		// Pivot row: rho = B⁻ᵀ·e_leave; alpha_j = rhoᵀ·a_j.
		ws.unit[leave] = 1
		s.factor.btran(ws.unit, rho)
		ws.unit[leave] = 0

		// Collect eligible candidates from the nonbasic list: entering j
		// whose feasible movement pushes x_leave toward its violated bound
		// (∂x_leave/∂x_j = −alpha_j).
		cands = cands[:0]
		rowP := s.factor.rowP()
		for _, j := range nbList {
			a := colDot(s.p.A, rowP, j, rho)
			alpha[j] = a
			if math.Abs(a) < pivotTol {
				continue
			}
			var eligible bool
			switch s.status[j] {
			case NonbasicLower: // x_j can only increase
				eligible = -a*delta > 0
			case NonbasicUpper: // x_j can only decrease
				eligible = a*delta > 0
			case NonbasicFree:
				eligible = true
			}
			if eligible {
				cands = append(cands, dualCandidate{j: j, ratio: math.Abs(d[j]) / math.Abs(a), alpha: a})
			}
		}
		ws.cands = cands
		s.pricing.ScannedCols += len(nbList)
		s.pricing.TotalCols += s.n
		if len(cands) == 0 {
			if !s.refreshed {
				if err := s.refactorizeOrRepair(); err != nil {
					return dualGiveUp
				}
				s.refreshed = true
				continue
			}
			return dualInfeasible // the row certifies infeasibility
		}
		slices.SortFunc(cands, func(a, b dualCandidate) int {
			switch {
			case a.ratio < b.ratio:
				return -1
			case a.ratio > b.ratio:
				return 1
			default:
				return 0
			}
		})

		// Long-step walk: flip candidates whose own range is exhausted
		// before the violation is repaired; stop at the pivot candidate.
		jOut := s.head[leave]
		var target float64
		var outStatus VarStatus
		if delta > 0 {
			target, outStatus = s.p.L[jOut], NonbasicLower
		} else {
			target, outStatus = s.p.U[jOut], NonbasicUpper
		}
		remaining := math.Abs(s.x[jOut] - target)

		pivot := -1
		flips := ws.flips[:0]
		for _, c := range cands {
			rng := s.p.U[c.j] - s.p.L[c.j]
			if math.IsInf(rng, 1) || math.Abs(c.alpha)*rng >= remaining-1e-12 {
				pivot = c.j
				break
			}
			flips = append(flips, c.j)
			remaining -= math.Abs(c.alpha) * rng
		}
		ws.flips = flips
		if pivot < 0 {
			// Even flipping every candidate cannot repair the row.
			if !s.refreshed {
				if err := s.refactorizeOrRepair(); err != nil {
					return dualGiveUp
				}
				s.refreshed = true
				continue
			}
			return dualInfeasible
		}

		// Apply all flips with one combined FTRAN.
		if len(flips) > 0 {
			for i := range flipAcc {
				flipAcc[i] = 0
			}
			for _, j := range flips {
				var dx float64
				if s.status[j] == NonbasicLower {
					dx = s.p.U[j] - s.p.L[j]
					s.status[j] = NonbasicUpper
					s.x[j] = s.p.U[j]
				} else {
					dx = s.p.L[j] - s.p.U[j]
					s.status[j] = NonbasicLower
					s.x[j] = s.p.L[j]
				}
				rows, vals := s.p.A.Col(j)
				for p, i := range rows {
					flipAcc[i] += vals[p] * dx
				}
			}
			s.factor.ftran(flipAcc)
			for k, j := range s.head {
				s.x[j] -= flipAcc[k]
			}
		}

		// Pivot: entering variable absorbs the residual violation.
		q := pivot
		s.ftranColumn(q)

		t := (s.x[jOut] - target) / alpha[q]
		enterVal := s.x[q] + t
		for k, j := range s.head {
			s.x[j] -= t * s.w[k]
		}
		s.status[jOut] = outStatus
		s.x[jOut] = target
		s.head[leave] = q
		s.cost[leave] = s.p.C[q]
		s.status[q] = Basic
		s.x[q] = enterVal

		// Dual update: theta = d_q / alpha_q shifts the nonbasic row.
		theta := d[q] / alpha[q]
		for _, j := range nbList {
			if alpha[j] != 0 {
				d[j] -= theta * alpha[j]
			}
		}
		d[q] = 0

		// Maintain the candidate list: q became basic (swap-remove), jOut
		// became nonbasic at a bound (append unless its range is fixed).
		pos := nbPos[q]
		last := len(nbList) - 1
		moved := nbList[last]
		nbList[pos] = moved
		nbPos[moved] = pos
		nbList = nbList[:last]
		nbPos[q] = -1
		if s.p.U[jOut]-s.p.L[jOut] > 0 {
			nbPos[jOut] = len(nbList)
			nbList = append(nbList, jOut)
			ws.nbList = nbList
		}
		d[jOut] = -theta

		if !s.factor.update(leave, s.w, s.wInd) {
			if err := s.refactorizeOrRepair(); err != nil {
				return dualGiveUp
			}
			reprice()
		}
		s.refreshed = false
		s.iters++

		if math.Abs(theta) > 1e13 {
			return dualGiveUp // numerical blow-up: let the primal repair
		}
	}
}
