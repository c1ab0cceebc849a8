package simplex

import (
	"math"
	"math/rand"
	"testing"

	"milpjoin/internal/sparse"
)

func pInf() float64 { return math.Inf(1) }
func nInf() float64 { return math.Inf(-1) }

// buildProblem assembles a computational-form Problem from dense constraint
// rows. sense is one of "<=", ">=", "=" per row. A logical column is
// appended per row.
func buildProblem(rows [][]float64, sense []string, rhs, c, l, u []float64) *Problem {
	m := len(rows)
	ns := len(c)
	tr := sparse.NewTriplet(m, ns+m)
	for i, row := range rows {
		for j, v := range row {
			if v != 0 {
				tr.Add(i, j, v)
			}
		}
		tr.Add(i, ns+i, 1)
	}
	fullC := append(append([]float64(nil), c...), make([]float64, m)...)
	fullL := append([]float64(nil), l...)
	fullU := append([]float64(nil), u...)
	for i := 0; i < m; i++ {
		switch sense[i] {
		case "<=":
			fullL = append(fullL, 0)
			fullU = append(fullU, math.Inf(1))
		case ">=":
			fullL = append(fullL, math.Inf(-1))
			fullU = append(fullU, 0)
		case "=":
			fullL = append(fullL, 0)
			fullU = append(fullU, 0)
		default:
			panic("bad sense " + sense[i])
		}
	}
	return &Problem{A: tr.Compress(), B: rhs, C: fullC, L: fullL, U: fullU}
}

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestSimpleMaximization(t *testing.T) {
	// max x+y s.t. x+y <= 1, x,y in [0, inf)  == min -x-y.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{"<="},
		[]float64{1},
		[]float64{-1, -1},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-1)) > 1e-9 {
		t.Errorf("obj = %g, want -1", res.Obj)
	}
}

func TestTwoConstraintLP(t *testing.T) {
	// min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
	// Classic optimum x=2, y=6, obj=-36.
	p := buildProblem(
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]string{"<=", "<=", "<="},
		[]float64{4, 12, 18},
		[]float64{-3, -5},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-36)) > 1e-8 {
		t.Errorf("obj = %g, want -36", res.Obj)
	}
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[1]-6) > 1e-8 {
		t.Errorf("x = (%g, %g), want (2, 6)", res.X[0], res.X[1])
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj=14.
	p := buildProblem(
		[][]float64{{1, 1}, {1, -1}},
		[]string{"=", "="},
		[]float64{10, 2},
		[]float64{1, 2},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-14) > 1e-8 {
		t.Errorf("obj = %g, want 14", res.Obj)
	}
}

func TestGreaterEqualNeedsPhase1(t *testing.T) {
	// min x + y s.t. x + y >= 5, x, y >= 0 → obj = 5.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{">="},
		[]float64{5},
		[]float64{1, 1},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-5) > 1e-8 {
		t.Errorf("obj = %g, want 5", res.Obj)
	}
}

func TestUpperBoundedVariables(t *testing.T) {
	// min -x - y s.t. x + y <= 10, x in [0,3], y in [0,4] → x=3, y=4.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{"<="},
		[]float64{10},
		[]float64{-1, -1},
		[]float64{0, 0},
		[]float64{3, 4},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-7)) > 1e-8 {
		t.Errorf("obj = %g, want -7", res.Obj)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x + y = 3, y in [0, 1], x free → x=2 at y=1.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{"="},
		[]float64{3},
		[]float64{1, 0},
		[]float64{nInf(), 0},
		[]float64{pInf(), 1},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-2) > 1e-8 {
		t.Errorf("obj = %g, want 2", res.Obj)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y s.t. x + y >= -4, x,y in [-3, 3] → obj = -4.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{">="},
		[]float64{-4},
		[]float64{1, 1},
		[]float64{-3, -3},
		[]float64{3, 3},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-4)) > 1e-8 {
		t.Errorf("obj = %g, want -4", res.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2 simultaneously.
	p := buildProblem(
		[][]float64{{1}, {1}},
		[]string{"<=", ">="},
		[]float64{1, 2},
		[]float64{0},
		[]float64{0},
		[]float64{pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleCrossedBounds(t *testing.T) {
	p := buildProblem(
		[][]float64{{1}},
		[]string{"<="},
		[]float64{1},
		[]float64{0},
		[]float64{5},
		[]float64{2}, // l > u
	)
	res := solveOK(t, p)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x s.t. x - y <= 1, x, y >= 0: x can grow with y.
	p := buildProblem(
		[][]float64{{1, -1}},
		[]string{"<="},
		[]float64{1},
		[]float64{-1, 0},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestFixedVariables(t *testing.T) {
	// x fixed to 2; min y s.t. x + y >= 5 → y = 3.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{">="},
		[]float64{5},
		[]float64{0, 1},
		[]float64{2, 0},
		[]float64{2, pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[1]-3) > 1e-8 {
		t.Errorf("y = %g, want 3", res.X[1])
	}
}

func TestUnconstrainedProblems(t *testing.T) {
	// m = 0: minimize over a box.
	tr := sparse.NewTriplet(0, 2)
	p := &Problem{
		A: tr.Compress(),
		B: nil,
		C: []float64{1, -2},
		L: []float64{-1, -5},
		U: []float64{4, 7},
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-1-14)) > 1e-12 {
		t.Errorf("obj = %g, want -15", res.Obj)
	}

	// Unbounded free variable with cost.
	p2 := &Problem{
		A: sparse.NewTriplet(0, 1).Compress(),
		C: []float64{1},
		L: []float64{math.Inf(-1)},
		U: []float64{math.Inf(1)},
	}
	res2 := solveOK(t, p2)
	if res2.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res2.Status)
	}
}

func TestWarmStartAfterBoundChange(t *testing.T) {
	p := buildProblem(
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]string{"<=", "<=", "<="},
		[]float64{4, 12, 18},
		[]float64{-3, -5},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("cold status = %v", res.Status)
	}

	// Tighten x ≤ 1 (branching-style bound change) and warm start.
	p.U[0] = 1
	warm, err := Solve(p, res.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status = %v", warm.Status)
	}
	// Optimum: x=1, y=6 → obj = -33.
	if math.Abs(warm.Obj-(-33)) > 1e-8 {
		t.Errorf("warm obj = %g, want -33", warm.Obj)
	}
	cold, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-8 {
		t.Errorf("warm %g vs cold %g", warm.Obj, cold.Obj)
	}
}

func TestDegenerateLPTerminates(t *testing.T) {
	// A classically degenerate LP (many redundant constraints through the
	// origin); must terminate via the Bland fallback.
	p := buildProblem(
		[][]float64{
			{1, 1, 1},
			{1, 1, 0},
			{1, 0, 1},
			{0, 1, 1},
			{1, 0, 0},
		},
		[]string{"<=", "<=", "<=", "<=", "<="},
		[]float64{0, 0, 0, 0, 0},
		[]float64{-1, -1, -1},
		[]float64{0, 0, 0},
		[]float64{pInf(), pInf(), pInf()},
	)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj) > 1e-9 {
		t.Errorf("obj = %g, want 0", res.Obj)
	}
}

// checkKKT verifies an optimality certificate: primal feasibility plus
// status-consistent reduced costs. This is independent of the solve path.
func checkKKT(t *testing.T, p *Problem, res *Result) {
	t.Helper()
	const tol = 1e-6
	m, n := p.NumRows(), p.NumCols()

	// Primal feasibility: A x = b and bounds.
	ax := p.A.MulVec(res.X)
	for i := 0; i < m; i++ {
		if math.Abs(ax[i]-p.B[i]) > tol*(1+math.Abs(p.B[i])) {
			t.Fatalf("row %d: Ax = %g, b = %g", i, ax[i], p.B[i])
		}
	}
	for j := 0; j < n; j++ {
		if res.X[j] < p.L[j]-tol || res.X[j] > p.U[j]+tol {
			t.Fatalf("var %d: x = %g outside [%g, %g]", j, res.X[j], p.L[j], p.U[j])
		}
	}

	// Dual feasibility: d_j = c_j − yᵀa_j consistent with statuses.
	for j := 0; j < n; j++ {
		d := p.C[j] - p.A.ColDot(j, res.Y)
		switch res.Basis.Status[j] {
		case Basic:
			if math.Abs(d) > 1e-5 {
				t.Fatalf("basic var %d has reduced cost %g", j, d)
			}
		case NonbasicLower:
			if p.U[j]-p.L[j] > 0 && d < -1e-5 {
				t.Fatalf("var %d at lower has reduced cost %g < 0", j, d)
			}
		case NonbasicUpper:
			if p.U[j]-p.L[j] > 0 && d > 1e-5 {
				t.Fatalf("var %d at upper has reduced cost %g > 0", j, d)
			}
		case NonbasicFree:
			if math.Abs(d) > 1e-5 {
				t.Fatalf("free var %d has reduced cost %g", j, d)
			}
		}
	}
}

func TestRandomLPsSatisfyKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		p := randomFeasibleLP(rng, 1+rng.Intn(6), 1+rng.Intn(8))
		res, err := Solve(p, nil, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != StatusOptimal {
			// Construction guarantees feasibility; unbounded is
			// impossible with finite bounds.
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		checkKKT(t, p, res)
	}
}

func TestRandomLPsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.Intn(3)
		ns := 1 + rng.Intn(4)
		p := randomFeasibleLP(rng, m, ns)
		res, err := Solve(p, nil, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		want, ok := bruteForceLP(p)
		if !ok {
			continue // enumeration found no feasible vertex: skip
		}
		if res.Obj > want+1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: simplex obj %g worse than brute force %g", trial, res.Obj, want)
		}
		if res.Obj < want-1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: simplex obj %g better than brute force %g (oracle bug?)", trial, res.Obj, want)
		}
	}
}

// randomFeasibleLP builds a random LP with finite bounds that is feasible
// by construction (b = A·x₀ with x₀ inside the box, equality-free senses).
func randomFeasibleLP(rng *rand.Rand, m, ns int) *Problem {
	return randomFeasibleLPWithDensity(rng, m, ns, 0.7)
}

// randomFeasibleLPWithDensity is randomFeasibleLP with the share of nonzero
// matrix entries chosen by the caller.
func randomFeasibleLPWithDensity(rng *rand.Rand, m, ns int, density float64) *Problem {
	rows := make([][]float64, m)
	x0 := make([]float64, ns)
	l := make([]float64, ns)
	u := make([]float64, ns)
	c := make([]float64, ns)
	for j := 0; j < ns; j++ {
		l[j] = -2 - rng.Float64()*3
		u[j] = 2 + rng.Float64()*3
		x0[j] = l[j] + rng.Float64()*(u[j]-l[j])
		c[j] = rng.NormFloat64()
	}
	sense := make([]string, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		rows[i] = make([]float64, ns)
		var dot float64
		for j := 0; j < ns; j++ {
			if rng.Float64() < density {
				rows[i][j] = rng.NormFloat64()
				dot += rows[i][j] * x0[j]
			}
		}
		switch rng.Intn(3) {
		case 0:
			sense[i], rhs[i] = "<=", dot+rng.Float64()
		case 1:
			sense[i], rhs[i] = ">=", dot-rng.Float64()
		default:
			sense[i], rhs[i] = "=", dot
		}
	}
	return buildProblem(rows, sense, rhs, c, l, u)
}

// bruteForceLP enumerates all bases and nonbasic bound assignments; valid
// only for small problems with finite structural bounds. Returns the best
// objective over all feasible vertices found.
func bruteForceLP(p *Problem) (float64, bool) {
	m, n := p.NumRows(), p.NumCols()
	best := math.Inf(1)
	found := false

	basis := make([]int, m)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == m {
			evalBasis(p, basis, &best, &found)
			return
		}
		for j := start; j < n; j++ {
			basis[k] = j
			rec(j+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

func evalBasis(p *Problem, basis []int, best *float64, found *bool) {
	m, n := p.NumRows(), p.NumCols()
	isBasic := make([]bool, n)
	cols := make([][]float64, m)
	for k, j := range basis {
		isBasic[j] = true
		col := make([]float64, m)
		rows, vals := p.A.Col(j)
		for t, i := range rows {
			col[i] = vals[t]
		}
		cols[k] = col
	}
	// Dense basis matrix (columns side by side → rows for FactorizeDense).
	bm := make([][]float64, m)
	for i := 0; i < m; i++ {
		bm[i] = make([]float64, m)
		for k := 0; k < m; k++ {
			bm[i][k] = cols[k][i]
		}
	}
	lu, err := sparse.FactorizeDense(bm)
	if err != nil {
		return
	}
	// Enumerate nonbasic bound assignments.
	nb := make([]int, 0, n-m)
	for j := 0; j < n; j++ {
		if !isBasic[j] {
			nb = append(nb, j)
		}
	}
	for mask := 0; mask < 1<<len(nb); mask++ {
		x := make([]float64, n)
		ok := true
		for b, j := range nb {
			if mask&(1<<b) == 0 {
				x[j] = p.L[j]
			} else {
				x[j] = p.U[j]
			}
			if math.IsInf(x[j], 0) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rhs := make([]float64, m)
		copy(rhs, p.B)
		for _, j := range nb {
			if x[j] == 0 {
				continue
			}
			rows, vals := p.A.Col(j)
			for t, i := range rows {
				rhs[i] -= vals[t] * x[j]
			}
		}
		xb := lu.Solve(rhs)
		feas := true
		for k, j := range basis {
			if xb[k] < p.L[j]-1e-7 || xb[k] > p.U[j]+1e-7 {
				feas = false
				break
			}
			x[j] = xb[k]
		}
		if !feas {
			continue
		}
		var obj float64
		for j := 0; j < n; j++ {
			obj += p.C[j] * x[j]
		}
		if obj < *best {
			*best = obj
			*found = true
		}
	}
}

func TestIterationLimit(t *testing.T) {
	p := buildProblem(
		[][]float64{{1, 1}},
		[]string{"<="},
		[]float64{1},
		[]float64{-1, -1},
		[]float64{0, 0},
		[]float64{pInf(), pInf()},
	)
	res, err := Solve(p, nil, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusIterLimit && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestBasisValidation(t *testing.T) {
	b := &Basis{Status: []VarStatus{Basic, NonbasicLower}, Head: []int{0}}
	if !b.valid(1, 2) {
		t.Error("valid basis rejected")
	}
	bad := &Basis{Status: []VarStatus{Basic, Basic}, Head: []int{0}}
	if bad.valid(1, 2) {
		t.Error("basis with wrong basic count accepted")
	}
	dup := &Basis{Status: []VarStatus{Basic, Basic}, Head: []int{0, 0}}
	if dup.valid(2, 2) {
		t.Error("basis with duplicate head accepted")
	}
	if (*Basis)(nil).valid(1, 2) {
		t.Error("nil basis accepted")
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusIterLimit:  "iteration limit",
		StatusAborted:    "aborted",
		Status(99):       "Status(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}
