package simplex

// Workspace is a reusable arena for Solve. Branch-and-bound explores
// thousands of node LPs over the same matrix; threading one workspace per
// worker through Options.Workspace makes warm-started re-solves
// allocation-free: every solver array (statuses, basis head, primal and
// dual values, FTRAN/BTRAN scratch, the eta file, LU factorization buffers,
// devex weights, and pricing candidate lists) is reused across calls,
// growing only when a larger problem arrives.
//
// A workspace also retains the last few fresh LU factorizations it computed
// (see factorSlots), each keyed by the *sparse.CSC it was built from and the
// ordered basis head, and a later Solve that needs the factor of the same
// basis adopts it instead of factorizing again. LU is a deterministic
// function of that key, so adoption changes no result bit — only
// Result.Refactors. The key holds the matrix by pointer: a matrix that was
// solved through a workspace must not be mutated in place while the
// workspace is in use (build a new CSC instead; bounds, costs and the
// right-hand side are free to change).
//
// A workspace is not safe for concurrent use, and the Result returned by a
// Solve that used it (including Result.X, Result.Y, and Result.Basis) is
// only valid until the next Solve with the same workspace — callers that
// keep solutions or bases across solves must copy them out.
type Workspace struct {
	sol solver // reused solver state; avoids one heap allocation per call

	m, n int

	// Core solver arrays (see solver for their roles).
	status     []VarStatus
	head       []int
	x          []float64
	tolL, tolU []float64
	y, w       []float64
	wInd       []int
	ratioCands []ratioCand
	infeas     []bool
	grad, cost []float64 // basic objective per phase (m)

	// The bounds that tolL and tolU as they stand were computed from; while
	// tolKnown is false they were computed from nothing (see solver.init).
	tolOfL, tolOfU []float64
	tolKnown       bool

	factor basisFactor

	// Devex reference-framework weights and the static candidate list of
	// non-fixed columns for primal pricing.
	devexW     []float64
	activeCols []int

	// Dual simplex working set. unit is the right-hand side e_leave of the
	// pivot row's BTRAN, kept all-zero between uses.
	rho, d, alpha []float64
	unit          []float64
	flipAcc       []float64
	cands         []dualCandidate
	flips         []int
	nbList        []int // nonbasic non-fixed columns, maintained per pivot
	nbPos         []int // column → position in nbList, -1 when absent

	// Warm-basis validation scratch (kept all-false between uses).
	seen []bool

	// Reusable Result storage.
	res      Result
	resX     []float64
	resY     []float64
	resBasis Basis
}

// NewWorkspace returns an empty workspace ready for reuse across solves.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset makes ws behave exactly like NewWorkspace() while keeping the
// capacity of its buffers, so that one arena can serve solves of unrelated
// problems one after another: the retained factorizations lose their keys
// (and the matrices they held alive), the last problem and its options are
// dropped, and every tolerance is recomputed by the next solve. Buffers
// that are kept all-zero or all-false between solves stay so.
func (ws *Workspace) Reset() {
	f := &ws.factor
	for i := range f.slots {
		f.slots[i].a, f.slots[i].used = nil, 0
	}
	f.clock = 0
	ws.sol = solver{}
	ws.tolKnown = false
}

// ensure sizes every buffer for an m×n problem, growing but never shrinking
// backing storage. A change of m drops the retained factorizations (see
// basisFactor.reset), a change of n the remembered tolerances.
func (ws *Workspace) ensure(m, n int) {
	if n != ws.n {
		ws.tolKnown = false
	}
	ws.m, ws.n = m, n
	ws.status = growStatuses(ws.status, n)
	ws.head = growInts(ws.head, m)
	ws.x = growFloats(ws.x, n)
	ws.tolL = growFloats(ws.tolL, n)
	ws.tolU = growFloats(ws.tolU, n)
	ws.tolOfL = growFloats(ws.tolOfL, n)
	ws.tolOfU = growFloats(ws.tolOfU, n)
	ws.y = growFloats(ws.y, m)
	ws.w = growFloats(ws.w, m)
	ws.wInd = growInts(ws.wInd, m)
	if cap(ws.ratioCands) < m {
		ws.ratioCands = make([]ratioCand, 0, m)
	}
	ws.grad = growFloats(ws.grad, m)
	ws.cost = growFloats(ws.cost, m)
	ws.infeas = growBools(ws.infeas, m)
	ws.devexW = growFloats(ws.devexW, n)
	ws.rho = growFloats(ws.rho, m)
	ws.unit = growFloats(ws.unit, m) // all-zero invariant holds for fresh storage
	ws.d = growFloats(ws.d, n)
	ws.alpha = growFloats(ws.alpha, n)
	ws.flipAcc = growFloats(ws.flipAcc, m)
	ws.nbPos = growInts(ws.nbPos, n)
	ws.seen = growBools(ws.seen, n) // all-false invariant holds for fresh storage
	ws.factor.reset(m)
}

// resetResult clears the pooled Result for a new solve, keeping slice
// capacity.
func (ws *Workspace) resetResult() *Result {
	res := &ws.res
	*res = Result{}
	ws.resX = ws.resX[:0]
	ws.resY = ws.resY[:0]
	return res
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growStatuses(s []VarStatus, n int) []VarStatus {
	if cap(s) < n {
		return make([]VarStatus, n)
	}
	return s[:n]
}
