package simplex

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrNumerical reports that the solver lost numerical control (for example
// a basis became singular and could not be repaired).
var ErrNumerical = errors.New("simplex: numerical failure")

// Solve minimizes the problem, optionally warm starting from basis. A nil
// warm basis starts from the all-logical (slack) basis.
//
// When opts.Workspace is set, all solver storage comes from the workspace
// and the returned Result aliases it; warm re-solves then run without heap
// allocation. With a nil workspace a private one is allocated, so the
// Result is independently owned by the caller.
func Solve(p *Problem, warm *Basis, opts Options) (*Result, error) {
	if err := p.checkShape(); err != nil {
		return nil, err
	}
	m, n := p.NumRows(), p.NumCols()
	opts = opts.withDefaults(m, n)
	crossed, err := p.checkColumns(feasTol)
	if err != nil {
		return nil, err
	}

	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}

	// Crossed bounds make the problem trivially infeasible.
	if crossed {
		res := ws.resetResult()
		res.Status = StatusInfeasible
		return res, nil
	}
	if m == 0 {
		return solveUnconstrained(p, opts)
	}

	s := &ws.sol
	*s = solver{p: p, opts: opts, m: m, n: n, ws: ws}
	s.init(warm)

	if opts.PreferDual && warm != nil && s.nInfeasible > 0 && s.dualFeasible() {
		switch s.dualLoop() {
		case dualInfeasible:
			return s.finish(StatusInfeasible), nil
		case dualAborted:
			return s.finish(StatusAborted), nil
		case dualDone, dualGiveUp:
			// Continue with the primal method: after dualDone it
			// certifies optimality in a handful of iterations; after
			// dualGiveUp it repairs from composite phase 1. The dual
			// loop moved x and head without keeping the phase state.
			s.rebuildPhaseState()
		}
	}
	return s.run()
}

type solver struct {
	p    *Problem
	opts Options
	m, n int
	ws   *Workspace

	status []VarStatus
	head   []int
	x      []float64 // values of all variables
	factor *basisFactor

	// Per-variable feasibility tolerances, relative to the bound
	// magnitudes so that variables with very large bounds (for example
	// cardinality approximations) are not held to absolute precision.
	tolL, tolU []float64

	// y = B⁻ᵀ·c_B of the last pricing pass, in the pivot-row coordinates of
	// the factor's LU (see basisFactor.btran); finish scatters it by row.
	y []float64
	w []float64 // transformed entering column (m)
	// wInd lists, ascending, the basis positions where w is nonzero, and w
	// is zero (of either sign) everywhere else. Set by ftranColumn; emptied
	// by solveBasics, which uses w as its right-hand side and clears it.
	wInd []int

	// ratioCands holds the ratio test's blocking candidates (capacity m).
	ratioCands []ratioCand

	// Phase state per basis position, kept in step with x and head by every
	// primal iteration at the positions it changes (wInd and the leaving
	// position) and rebuilt in full by rebuildPhaseState: whether the basic
	// variable violates a bound and how many do (phase 1 runs while any
	// does), the phase-1 objective gradient and the phase-2 cost. The dual
	// loop keeps only cost.
	infeas      []bool
	nInfeasible int
	grad, cost  []float64

	// Pricing state: devex reference-framework weights per variable, the
	// static list of non-fixed columns, and the rotating partial-pricing
	// cursor into it.
	devexW      []float64
	activeCols  []int
	priceCursor int
	pricing     PricingStats

	iters       int
	degenStreak int
	bland       bool
	repairs     int // emergency basis resets performed
	refactors   int // LU factorizations computed (adopted factors not counted)
	// refreshed: factor and basic values are exact for the current basis —
	// the eta file is empty and x_B came from recomputeBasics. Pivots and
	// bound flips clear it (a flip keeps the factor fresh but updates x_B
	// incrementally). Final statuses are only declared from this state.
	refreshed bool

	start time.Time
}

// init installs the warm basis when valid, otherwise the logical basis, and
// computes initial variable values. All storage is borrowed from the
// workspace.
func (s *solver) init(warm *Basis) {
	ws := s.ws
	ws.ensure(s.m, s.n)
	s.status = ws.status
	s.head = ws.head
	s.x = ws.x
	s.factor = &ws.factor
	s.y = ws.y
	s.w = ws.w
	s.wInd = ws.wInd
	s.ratioCands = ws.ratioCands
	s.infeas = ws.infeas
	s.grad = ws.grad
	s.cost = ws.cost
	s.tolL = ws.tolL
	s.tolU = ws.tolU
	s.devexW = ws.devexW
	s.start = time.Now()

	// One pass over the columns. A tolerance is a function of feasTol and one
	// bound, and a branch-and-bound node moves a handful of bounds: only where
	// the bound differs from the one the workspace computed it from is it
	// computed again. Fixed columns can never enter, so pricing only ever
	// scans the candidate list (a win deep in a branch-and-bound tree, where
	// many integer variables are fixed).
	stale := !ws.tolKnown
	ws.tolKnown = true
	active := ws.activeCols[:0]
	for j := 0; j < s.n; j++ {
		l, u := s.p.L[j], s.p.U[j]
		if stale || l != ws.tolOfL[j] {
			ws.tolOfL[j] = l
			s.tolL[j] = scaledTol(feasTol, l)
		}
		if stale || u != ws.tolOfU[j] {
			ws.tolOfU[j] = u
			s.tolU[j] = scaledTol(feasTol, u)
		}
		s.devexW[j] = 1
		if u-l > 0 {
			active = append(active, j)
		}
	}
	ws.activeCols, s.activeCols = active, active

	if warm != nil && warm.validIn(s.m, s.n, ws.seen) {
		copy(s.head, warm.Head)
		copy(s.w, s.p.B)
		for j, st := range warm.Status {
			if st == Basic {
				s.status[j] = Basic
				continue
			}
			// Snap nonbasic statuses onto bounds that may have moved since
			// the basis was recorded (branch-and-bound tightens bounds).
			s.placeNonbasic(j, s.snapStatus(j, st))
		}
		if s.loadFactor() == nil {
			// Keep this factor intact for a sibling that warm starts from
			// the same basis; the solve refactorizes into another slot.
			s.factor.keep()
			s.solveBasics()
			return
		}
		// Warm basis is singular under current bounds: fall through.
	}
	s.installLogicalBasis()
}

// scaledTol is the feasibility tolerance at a bound: relative to the bound's
// magnitude, absolute where there is none.
func scaledTol(tol, bound float64) float64 {
	if !math.IsInf(bound, 0) {
		tol *= 1 + math.Abs(bound)
	}
	return tol
}

// snapStatus adjusts a nonbasic status so that it refers to a finite bound.
func (s *solver) snapStatus(j int, st VarStatus) VarStatus {
	l, u := s.p.L[j], s.p.U[j]
	switch st {
	case NonbasicLower:
		if math.IsInf(l, -1) {
			if math.IsInf(u, 1) {
				return NonbasicFree
			}
			return NonbasicUpper
		}
	case NonbasicUpper:
		if math.IsInf(u, 1) {
			if math.IsInf(l, -1) {
				return NonbasicFree
			}
			return NonbasicLower
		}
	case NonbasicFree:
		if !math.IsInf(l, -1) {
			return NonbasicLower
		}
		if !math.IsInf(u, 1) {
			return NonbasicUpper
		}
	}
	return st
}

// installLogicalBasis resets to the all-logical basis with structural
// variables at their nearest finite bound.
func (s *solver) installLogicalBasis() {
	ns := s.n - s.m // number of structural variables
	copy(s.w, s.p.B)
	for j := 0; j < ns; j++ {
		s.placeNonbasic(j, s.defaultNonbasicStatus(j))
	}
	for k := 0; k < s.m; k++ {
		j := ns + k
		s.status[j] = Basic
		s.head[k] = j
	}
	if err := s.loadFactor(); err != nil {
		// The logical block is the identity; this cannot happen unless
		// the caller violated the contract.
		panic(fmt.Sprintf("simplex: logical basis singular: %v", err))
	}
	s.solveBasics()
}

func (s *solver) defaultNonbasicStatus(j int) VarStatus {
	l, u := s.p.L[j], s.p.U[j]
	lInf, uInf := math.IsInf(l, -1), math.IsInf(u, 1)
	switch {
	case lInf && uInf:
		return NonbasicFree
	case lInf:
		return NonbasicUpper
	case uInf:
		return NonbasicLower
	case math.Abs(l) <= math.Abs(u):
		return NonbasicLower
	default:
		return NonbasicUpper
	}
}

// placeNonbasic rests variable j on the bound its nonbasic status st names and
// takes its column, at that value, out of the right-hand side w holds for
// solveBasics. Callers go through the columns in ascending order, the order
// recomputeBasics subtracts in.
func (s *solver) placeNonbasic(j int, st VarStatus) {
	s.status[j] = st
	var xj float64
	switch st {
	case NonbasicLower:
		xj = s.p.L[j]
	case NonbasicUpper:
		xj = s.p.U[j]
	}
	s.x[j] = xj
	if xj != 0 {
		s.subtractColumn(j, xj)
	}
}

// subtractColumn takes xj times column j out of w.
func (s *solver) subtractColumn(j int, xj float64) {
	rows, vals := s.p.A.Col(j)
	for p, i := range rows {
		s.w[i] -= vals[p] * xj
	}
}

// recomputeBasics solves for the basic variable values from scratch:
// x_B = B⁻¹(b − A_N·x_N). Every caller has just loaded the factor for the
// current head, so the state it leaves is exact (see solver.refreshed).
// It overwrites w.
func (s *solver) recomputeBasics() {
	copy(s.w, s.p.B)
	for j, st := range s.status {
		if xj := s.x[j]; st != Basic && xj != 0 {
			s.subtractColumn(j, xj)
		}
	}
	s.solveBasics()
}

// solveBasics finishes what recomputeBasics starts, from w = b − A_N·x_N,
// and leaves w all-zero for the next entering column.
func (s *solver) solveBasics() {
	s.factor.ftran(s.w)
	for k, j := range s.head {
		s.x[j] = s.w[k]
	}
	clear(s.w)
	s.wInd = s.wInd[:0]
	s.rebuildPhaseState()
	s.refreshed = true
}

// rebuildPhaseState recomputes the phase state of every basis position from
// x and head.
func (s *solver) rebuildPhaseState() {
	clear(s.infeas)
	s.nInfeasible = 0
	for k, j := range s.head {
		s.cost[k] = s.p.C[j]
		s.classify(k)
	}
}

// classify brings the phase state of basis position k in line with the value
// of the variable there. A violation counts beyond the variable's scaled
// tolerance. The count and the gradient spell that test differently (l−x >
// tol against x < l−tol), which can disagree in the last bit; each keeps its
// spelling, because the count picks the phase and the gradient the prices.
func (s *solver) classify(k int) {
	j := s.head[k]
	x, l, u := s.x[j], s.p.L[j], s.p.U[j]
	if inf := l-x > s.tolL[j] || x-u > s.tolU[j]; inf != s.infeas[k] {
		s.infeas[k] = inf
		if inf {
			s.nInfeasible++
		} else {
			s.nInfeasible--
		}
	}
	switch {
	case x < l-s.tolL[j]:
		s.grad[k] = -1
	case x > u+s.tolU[j]:
		s.grad[k] = 1
	default:
		s.grad[k] = 0
	}
}

// run executes the two-phase primal simplex loop.
func (s *solver) run() (*Result, error) {
	// yKept: y is still B⁻ᵀ·c_B for the phase-2 costs. A phase-2 bound flip
	// leaves it so, because it moves neither the factor nor c_B.
	yKept := false
	for {
		if s.iters >= s.opts.MaxIter {
			return s.finish(StatusIterLimit), nil
		}
		if s.aborted() {
			return s.finish(StatusAborted), nil
		}
		if s.factor.numEtas() >= s.opts.RefactorEvery {
			if err := s.refactorizeOrRepair(); err != nil {
				return nil, err
			}
			yKept = false
		}

		phase1 := s.nInfeasible > 0

		// Pricing: y = B⁻ᵀ c_B with the phase-appropriate costs.
		switch {
		case phase1:
			s.factor.btran(s.grad, s.y)
		case !yKept:
			s.factor.btran(s.cost, s.y)
		}
		yKept = false

		q, sigma := s.chooseEntering(phase1)
		if q < 0 {
			// Before declaring a final status, rebuild the
			// factorization and recompute the basic values: the
			// incremental eta updates drift, and a conclusion drawn
			// from drifted values (false infeasibility, premature
			// optimality) would be wrong. After a refresh the loop
			// re-evaluates from exact-for-this-basis values.
			if !s.refreshed {
				if err := s.refactorizeOrRepair(); err != nil {
					return nil, err
				}
				continue
			}
			if phase1 {
				// Phase-1 optimal with residual infeasibility.
				return s.finish(StatusInfeasible), nil
			}
			return s.finish(StatusOptimal), nil
		}

		s.ftranColumn(q)

		t, leave, leaveStatus, flip := s.ratioTest(q, sigma, phase1)
		switch {
		case math.IsInf(t, 1):
			if !s.refreshed {
				if err := s.refactorizeOrRepair(); err != nil {
					return nil, err
				}
				continue
			}
			if phase1 {
				// A bounded-below phase-1 objective cannot be
				// unbounded; numerical trouble. Try a repair.
				if err := s.repair(); err != nil {
					return nil, err
				}
				continue
			}
			return s.finish(StatusUnbounded), nil
		case flip:
			s.applyBoundFlip(q, sigma, t)
			s.refreshed = false
			yKept = !phase1
		default:
			if err := s.applyPivot(q, sigma, t, leave, leaveStatus); err != nil {
				return nil, err
			}
			s.refreshed = false
		}
		s.iters++

		if t <= feasTol {
			s.degenStreak++
			if s.degenStreak > blandAfter {
				s.bland = true
			}
		} else {
			s.degenStreak = 0
			s.bland = false
		}
	}
}

func (s *solver) aborted() bool {
	if s.iters%32 != 0 {
		return false
	}
	return s.opts.Stop != nil && s.opts.Stop.Load()
}

// ftranColumn computes the transformed entering column w = B⁻¹·a_q and
// lists the positions of its nonzeros in wInd.
func (s *solver) ftranColumn(q int) {
	for _, k := range s.wInd {
		s.w[k] = 0
	}
	rows, vals := s.p.A.Col(q)
	s.wInd = s.factor.ftranColumn(rows, vals, s.w, s.wInd[:0])
}

// chooseEntering prices nonbasic columns and returns the entering variable
// and its direction (+1 increasing, −1 decreasing), or (-1, 0) when no
// eligible column exists (phase optimal).
//
// The default rule is devex reference-framework pricing (score d²/weight)
// over partial scans of the candidate list: sections are priced round-robin
// from a rotating cursor and the scan stops at the first section that
// yields an eligible column. Optimality is only declared after a full scan
// finds nothing. Bland mode (anti-cycling) takes the first eligible index
// instead, and Options.DantzigPricing forces full largest-reduced-cost
// scans.
func (s *solver) chooseEntering(phase1 bool) (int, float64) {
	if s.bland {
		return s.chooseEnteringBland(phase1)
	}
	active := s.activeCols
	nAct := len(active)
	if nAct == 0 {
		return -1, 0
	}
	// Partial pricing parameters: sections of the candidate list are
	// priced round-robin from the rotating cursor; the scan stops early
	// only once a healthy pool of eligible columns has been compared, so
	// the entering choice stays competitive with a full scan. Small
	// problems (and Dantzig mode) always scan fully.
	section, minPool := nAct, nAct
	if !s.opts.DantzigPricing && nAct >= 2048 {
		section, minPool = nAct/8, 32
	}

	rowP := s.factor.rowP()
	best, eligible := -1, 0
	var bestScore, bestSigma float64
	idx := s.priceCursor
	if idx >= nAct {
		idx = 0
	}
	scanned := 0
	for scanned < nAct {
		cnt := section
		if cnt > nAct-scanned {
			cnt = nAct - scanned
		}
		for i := 0; i < cnt; i++ {
			j := active[idx]
			idx++
			if idx == nAct {
				idx = 0
			}
			st := s.status[j]
			if st == Basic {
				continue
			}
			cj := 0.0
			if !phase1 {
				cj = s.p.C[j]
			}
			d := cj - colDot(s.p.A, rowP, j, s.y)
			var sigma float64
			switch st {
			case NonbasicLower:
				if d < -optTol {
					sigma = 1
				}
			case NonbasicUpper:
				if d > optTol {
					sigma = -1
				}
			case NonbasicFree:
				if d < -optTol {
					sigma = 1
				} else if d > optTol {
					sigma = -1
				}
			}
			if sigma == 0 {
				continue
			}
			eligible++
			score := d * d
			if !s.opts.DantzigPricing {
				score /= s.devexW[j]
			}
			if score > bestScore {
				best, bestScore, bestSigma = j, score, sigma
			}
		}
		scanned += cnt
		if best >= 0 && eligible >= minPool {
			break
		}
	}
	s.priceCursor = idx
	s.pricing.ScannedCols += scanned
	s.pricing.TotalCols += nAct
	return best, bestSigma
}

// chooseEnteringBland prices the candidate list in ascending index order and
// returns the first eligible column (Bland's anti-cycling rule).
func (s *solver) chooseEnteringBland(phase1 bool) (int, float64) {
	s.pricing.TotalCols += len(s.activeCols)
	rowP := s.factor.rowP()
	for i, j := range s.activeCols {
		st := s.status[j]
		if st == Basic {
			continue
		}
		cj := 0.0
		if !phase1 {
			cj = s.p.C[j]
		}
		d := cj - colDot(s.p.A, rowP, j, s.y)
		switch st {
		case NonbasicLower:
			if d < -optTol {
				s.pricing.ScannedCols += i + 1
				return j, 1
			}
		case NonbasicUpper:
			if d > optTol {
				s.pricing.ScannedCols += i + 1
				return j, -1
			}
		case NonbasicFree:
			if d < -optTol {
				s.pricing.ScannedCols += i + 1
				return j, 1
			}
			if d > optTol {
				s.pricing.ScannedCols += i + 1
				return j, -1
			}
		}
	}
	s.pricing.ScannedCols += len(s.activeCols)
	return -1, 0
}

// devexUpdate refreshes the reference weights after a pivot: entering q at
// basis position leave with pivot element wr replaces jOut. Only the
// leaving variable's weight is updated exactly (restarting devex); the
// framework resets when weights blow up, keeping scores meaningful.
func (s *solver) devexUpdate(q, jOut int, wr float64) {
	const resetAbove = 1e7
	wNew := s.devexW[q] / (wr * wr)
	if wNew < 1 {
		wNew = 1
	}
	if wNew > resetAbove {
		s.resetDevex()
		s.pricing.DevexResets++
		return
	}
	s.devexW[jOut] = wNew
}

// resetDevex restarts the reference framework at the current nonbasic set.
func (s *solver) resetDevex() {
	for _, j := range s.activeCols {
		s.devexW[j] = 1
	}
}

// ratioCand is a basic variable that blocks the entering direction: at
// basis position k, after step t, leaving with status st.
type ratioCand struct {
	k  int
	t  float64
	st VarStatus
}

// ratioTest finds the maximum step t for entering variable q moving in
// direction sigma. It returns the step, the blocking basis position (or -1),
// the status the leaving variable assumes, and whether the step is a bound
// flip of the entering variable itself.
//
// Phase-1 semantics: infeasible basic variables block only when they reach
// the bound they violate (becoming feasible); feasible ones block at the
// bound they would cross.
func (s *solver) ratioTest(q int, sigma float64, phase1 bool) (t float64, leave int, leaveStatus VarStatus, flip bool) {
	tEnter := math.Inf(1)
	if !math.IsInf(s.p.L[q], -1) && !math.IsInf(s.p.U[q], 1) {
		tEnter = s.p.U[q] - s.p.L[q]
	}

	// One pass over w's nonzeros: each basic variable that blocks, the step
	// at which it does and the bound it stops at; tBest is the tightest step.
	tBest := math.Inf(1)
	cands := s.ratioCands[:0]
	for _, k := range s.wInd {
		j := s.head[k]
		wk := sigma * s.w[k]
		var tk float64
		var st VarStatus
		if wk > pivotTol { // x_j decreases
			switch {
			case phase1 && s.x[j] > s.p.U[j]+s.tolU[j]:
				tk, st = (s.x[j]-s.p.U[j])/wk, NonbasicUpper
			case s.x[j] >= s.p.L[j]-s.tolL[j]:
				if math.IsInf(s.p.L[j], -1) {
					continue
				}
				tk, st = (s.x[j]-s.p.L[j])/wk, NonbasicLower
			default:
				continue // below lower and sinking: already counted in gradient
			}
		} else if wk < -pivotTol { // x_j increases
			switch {
			case phase1 && s.x[j] < s.p.L[j]-s.tolL[j]:
				tk, st = (s.p.L[j]-s.x[j])/-wk, NonbasicLower
			case s.x[j] <= s.p.U[j]+s.tolU[j]:
				if math.IsInf(s.p.U[j], 1) {
					continue
				}
				tk, st = (s.p.U[j]-s.x[j])/-wk, NonbasicUpper
			default:
				continue
			}
		} else {
			continue
		}
		if tk < 0 {
			tk = 0
		}
		if tk < tBest {
			tBest = tk
		}
		cands = append(cands, ratioCand{k: k, t: tk, st: st})
	}
	s.ratioCands = cands

	if tEnter <= tBest {
		return tEnter, -1, 0, true
	}
	if math.IsInf(tBest, 1) {
		return tBest, -1, 0, false
	}

	// Among the blocks within a relative window of tBest, pick the largest
	// pivot magnitude for numerical stability (Bland mode picks the
	// smallest variable index instead).
	window := tBest + 1e-9*(1+tBest)
	leave = -1
	var bestPiv float64
	for _, c := range cands {
		if c.t > window {
			continue
		}
		if s.bland {
			if leave < 0 || s.head[c.k] < s.head[leave] {
				leave, leaveStatus = c.k, c.st
			}
		} else if p := math.Abs(s.w[c.k]); p > bestPiv {
			bestPiv, leave, leaveStatus = p, c.k, c.st
		}
	}
	if leave < 0 {
		// Unreachable by arithmetic: the candidate that set tBest is inside
		// the window. Kept as a guard against pivoting on no row: an infinite step
		// makes run refresh the factorization and, if the state was
		// already exact, repair (phase 1) or end unbounded.
		return math.Inf(1), -1, 0, false
	}
	return tBest, leave, leaveStatus, false
}

// stepBasics moves the basic variables along the entering direction, x_B −=
// step·w. Only the positions where w is nonzero move.
func (s *solver) stepBasics(step float64) {
	for _, k := range s.wInd {
		s.x[s.head[k]] -= step * s.w[k]
		s.classify(k)
	}
}

// applyBoundFlip moves the entering variable across to its opposite bound.
func (s *solver) applyBoundFlip(q int, sigma, t float64) {
	s.stepBasics(sigma * t)
	if sigma > 0 {
		s.status[q] = NonbasicUpper
		s.x[q] = s.p.U[q]
	} else {
		s.status[q] = NonbasicLower
		s.x[q] = s.p.L[q]
	}
}

// applyPivot executes a basis change: entering q, leaving head[leave].
func (s *solver) applyPivot(q int, sigma, t float64, leave int, leaveStatus VarStatus) error {
	enterVal := s.x[q] + sigma*t
	s.stepBasics(sigma * t)
	jOut := s.head[leave]
	s.status[jOut] = leaveStatus
	if leaveStatus == NonbasicLower {
		s.x[jOut] = s.p.L[jOut]
	} else {
		s.x[jOut] = s.p.U[jOut]
	}
	s.head[leave] = q
	s.status[q] = Basic
	s.x[q] = enterVal
	s.cost[leave] = s.p.C[q]
	s.classify(leave)
	s.devexUpdate(q, jOut, s.w[leave])

	if !s.factor.update(leave, s.w, s.wInd) {
		return s.refactorizeOrRepair()
	}
	return nil
}

// loadFactor makes the factor exact for the current head (empty eta file),
// adopting a retained factorization of the same basis when the workspace
// holds one and counting the factorization otherwise.
func (s *solver) loadFactor() error {
	factorized, err := s.factor.load(s.p.A, s.head)
	if factorized {
		s.refactors++
	}
	return err
}

// refactorizeOrRepair makes factor and basic values exact for the current
// basis; on singularity it falls back to the logical basis (bounded number
// of times). With an empty eta file the factor is already the fresh one, so
// only the basic values are recomputed.
func (s *solver) refactorizeOrRepair() error {
	if err := s.loadFactor(); err != nil {
		return s.repair()
	}
	s.recomputeBasics()
	return nil
}

// repair resets to the logical basis after numerical failure.
func (s *solver) repair() error {
	s.repairs++
	if s.repairs > 3 {
		return fmt.Errorf("%w: repeated basis repair", ErrNumerical)
	}
	s.installLogicalBasis()
	s.resetDevex()
	s.bland = false
	s.degenStreak = 0
	return nil
}

// finish packages the current state into the workspace's pooled Result.
// Everything the Result exposes (X, Y, Basis) is copied into dedicated
// workspace storage, so it stays valid across solver reuse but only until
// the next Solve with the same workspace.
func (s *solver) finish(st Status) *Result {
	ws := s.ws
	res := ws.resetResult()
	res.Status = st
	res.Iters = s.iters
	res.Refactors = s.refactors
	res.Pricing = s.pricing
	ws.resX = append(ws.resX[:0], s.x...)
	res.X = ws.resX
	ws.resBasis.Status = append(ws.resBasis.Status[:0], s.status...)
	ws.resBasis.Head = append(ws.resBasis.Head[:0], s.head...)
	res.Basis = &ws.resBasis
	var obj float64
	for j := 0; j < s.n; j++ {
		obj += s.p.C[j] * s.x[j]
	}
	res.Obj = obj
	if st == StatusOptimal {
		// run declares optimality straight after a phase-2 pricing pass
		// over the exact state, so s.y already holds B⁻ᵀ·c_B.
		ws.resY = growFloats(ws.resY, s.m)
		s.factor.unpivot(ws.resY, s.y)
		res.Y = ws.resY
	}
	return res
}

// solveUnconstrained handles the m = 0 corner case directly.
func solveUnconstrained(p *Problem, opts Options) (*Result, error) {
	n := p.NumCols()
	x := make([]float64, n)
	status := make([]VarStatus, n)
	var obj float64
	for j := 0; j < n; j++ {
		c := p.C[j]
		switch {
		case c > 0:
			if math.IsInf(p.L[j], -1) {
				return &Result{Status: StatusUnbounded}, nil
			}
			x[j], status[j] = p.L[j], NonbasicLower
		case c < 0:
			if math.IsInf(p.U[j], 1) {
				return &Result{Status: StatusUnbounded}, nil
			}
			x[j], status[j] = p.U[j], NonbasicUpper
		default:
			switch {
			case !math.IsInf(p.L[j], -1):
				x[j], status[j] = p.L[j], NonbasicLower
			case !math.IsInf(p.U[j], 1):
				x[j], status[j] = p.U[j], NonbasicUpper
			default:
				x[j], status[j] = 0, NonbasicFree
			}
		}
		obj += c * x[j]
	}
	return &Result{
		Status: StatusOptimal,
		Obj:    obj,
		X:      x,
		Y:      []float64{},
		Basis:  &Basis{Status: status, Head: []int{}},
	}, nil
}
