package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"milpjoin/internal/sparse"
)

// solveSnapshot is everything a Solve returns, copied out of the workspace.
type solveSnapshot struct {
	status    Status
	obj       float64
	iters     int
	refactors int
	x, y      []float64
	head      []int
	vstat     []VarStatus
}

func snapshot(res *Result) solveSnapshot {
	s := solveSnapshot{status: res.Status, obj: res.Obj, iters: res.Iters, refactors: res.Refactors}
	s.x = slices.Clone(res.X)
	s.y = slices.Clone(res.Y)
	if res.Basis != nil {
		s.head = slices.Clone(res.Basis.Head)
		s.vstat = slices.Clone(res.Basis.Status)
	}
	return s
}

func (s solveSnapshot) basis() *Basis { return &Basis{Status: s.vstat, Head: s.head} }

// requireSameBits fails unless two solves agree on every result bit. Only
// the refactorization count may differ.
func requireSameBits(t *testing.T, label string, got, want solveSnapshot) {
	t.Helper()
	if got.status != want.status || got.obj != want.obj || got.iters != want.iters {
		t.Fatalf("%s: status/obj/iters %v/%v/%d, want %v/%v/%d", label, got.status, got.obj, got.iters, want.status, want.obj, want.iters)
	}
	if !slices.Equal(got.x, want.x) {
		t.Fatalf("%s: X differs", label)
	}
	if !slices.Equal(got.y, want.y) {
		t.Fatalf("%s: Y differs", label)
	}
	if !slices.Equal(got.head, want.head) || !slices.Equal(got.vstat, want.vstat) {
		t.Fatalf("%s: basis differs", label)
	}
}

// branchVar picks a basic structural variable lying at least 0.5 inside
// both of its bounds, the stand-in for a fractional branching variable.
func branchVar(p *Problem, s solveSnapshot) int {
	ns := p.NumCols() - p.NumRows()
	for j := 0; j < ns; j++ {
		if s.vstat[j] == Basic && s.x[j]-p.L[j] > 0.5 && p.U[j]-s.x[j] > 0.5 {
			return j
		}
	}
	return -1
}

// branchSequence drives the solves one branch-and-bound worker would make
// around a node: parent, child, grandchild, then the sibling out of order,
// then a dive that warm starts each LP from the previous Result.Basis as it
// sits in the workspace. workspace() supplies the workspace of each solve.
// Every step is derived from earlier results, so two runs that agree bit for
// bit make identical sequences.
func branchSequence(t *testing.T, p *Problem, opts Options, workspace func() *Workspace) []solveSnapshot {
	t.Helper()
	origL, origU := slices.Clone(p.L), slices.Clone(p.U)
	defer func() { copy(p.L, origL); copy(p.U, origU) }()

	var out []solveSnapshot
	solve := func(warm *Basis) *Result {
		o := opts
		o.Workspace = workspace()
		res, err := Solve(p, warm, o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, snapshot(res))
		return res
	}

	solve(nil)
	parent := out[0]
	if parent.status != StatusOptimal {
		return out
	}
	j0 := branchVar(p, parent)
	if j0 < 0 {
		return out
	}

	// Child (down branch), then its own child.
	p.U[j0] = parent.x[j0] - 0.4
	solve(parent.basis())
	if child := out[1]; child.status == StatusOptimal {
		if j1 := branchVar(p, child); j1 >= 0 {
			u1 := p.U[j1]
			p.U[j1] = child.x[j1] - 0.4
			solve(child.basis())
			p.U[j1] = u1
		}
	}

	// Sibling (up branch), after the grandchild displaced its factor.
	p.U[j0] = origU[j0]
	p.L[j0] = parent.x[j0] + 0.4
	cur := solve(parent.basis())

	// Dive: fix one more variable per round and re-solve from the basis
	// the previous solve left in its workspace.
	for round := 0; round < 6 && cur.Status == StatusOptimal; round++ {
		j := branchVar(p, out[len(out)-1])
		if j < 0 {
			break
		}
		v := math.Round(cur.X[j])
		p.L[j], p.U[j] = v, v
		cur = solve(cur.Basis)
	}
	return out
}

// TestRetainedFactorIsBitIdentical: a workspace that adopts the
// factorizations it retained returns, solve for solve, exactly what a new
// workspace returns — same status, objective, iteration count, primal and
// dual values and basis, compared with == — and computes strictly fewer
// factorizations doing so.
func TestRetainedFactorIsBitIdentical(t *testing.T) {
	for _, preferDual := range []bool{false, true} {
		for _, refactorEvery := range []int{0, 2} {
			opts := Options{PreferDual: preferDual, RefactorEvery: refactorEvery}
			t.Run(fmt.Sprintf("dual=%v/every=%d", preferDual, refactorEvery), func(t *testing.T) {
				var sharedRefactors, freshRefactors, solves int
				for seed := int64(1); seed <= 8; seed++ {
					p := randomFeasibleLP(rand.New(rand.NewSource(seed)), 25, 40)
					fresh := branchSequence(t, p, opts, NewWorkspace)
					ws := NewWorkspace()
					shared := branchSequence(t, p, opts, func() *Workspace { return ws })
					if len(shared) != len(fresh) {
						t.Fatalf("seed %d: %d solves on the shared workspace, %d on new ones", seed, len(shared), len(fresh))
					}
					for i := range fresh {
						requireSameBits(t, fmt.Sprintf("seed %d solve %d", seed, i), shared[i], fresh[i])
						sharedRefactors += shared[i].refactors
						freshRefactors += fresh[i].refactors
					}
					solves += len(fresh)
				}
				if solves < 8*4 {
					t.Fatalf("only %d solves: the sequences are not branching", solves)
				}
				if sharedRefactors >= freshRefactors {
					t.Errorf("shared workspace computed %d factorizations, new workspaces %d: nothing was adopted", sharedRefactors, freshRefactors)
				}
				t.Logf("%d solves: %d factorizations retained, %d without", solves, sharedRefactors, freshRefactors)
			})
		}
	}
}

// scaledCopy returns a new matrix with the pattern of a and the values of
// its first ns (structural) columns multiplied by a column-dependent factor;
// the logical columns stay the identity.
func scaledCopy(a *sparse.CSC, ns int) *sparse.CSC {
	val := slices.Clone(a.Val)
	for j := 0; j < ns; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			val[k] *= 1 + 0.1*float64(j%7)
		}
	}
	return sparse.NewCSC(a.Rows, a.Cols, slices.Clone(a.ColPtr), slices.Clone(a.RowInd), val)
}

// TestRetainedFactorNeverCrossesMatrices: a retained factorization belongs
// to the matrix it was computed from. The same basis head over a different
// matrix of the same shape is factorized anew, and a head that is singular
// in the matrix at hand falls back to the logical basis every time it is
// offered, its failed factorization never becoming adoptable.
func TestRetainedFactorNeverCrossesMatrices(t *testing.T) {
	p1 := randomFeasibleLP(rand.New(rand.NewSource(3)), 25, 40)
	ws := NewWorkspace()
	first, err := Solve(p1, nil, Options{Workspace: ws})
	if err != nil || first.Status != StatusOptimal {
		t.Fatalf("first solve: %v %v", err, first.Status)
	}
	basis := first.Basis.Clone()

	// Same dimensions, same pattern, same warm basis, other values.
	p2 := &Problem{A: scaledCopy(p1.A, p1.NumCols()-p1.NumRows()), B: p1.B, C: p1.C, L: p1.L, U: p1.U}
	got, err := Solve(p2, basis, Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(p2, basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "other matrix, same head", snapshot(got), snapshot(want))
	if got.Refactors != want.Refactors {
		t.Errorf("other matrix, same head: %d factorizations, a new workspace computes %d — a factor crossed matrices", got.Refactors, want.Refactors)
	}

	// A warm basis whose columns are dependent in this matrix. The sequence
	// steers its failed factorization into the slot that holds a good one
	// (h) and keeps every later factorization of the solve out of that
	// slot, so a slot that kept its old key would hand a half-written LU
	// to the last solve.
	sing := buildProblem(
		[][]float64{{1, 2}, {1, 2}},
		[]string{"<=", "<="},
		[]float64{4, 6},
		[]float64{-1, -1},
		[]float64{0, 0}, []float64{3, 3},
	)
	flat := &Problem{A: sing.A, B: sing.B, C: make([]float64, sing.NumCols()), L: sing.L, U: sing.U}
	singular := &Basis{Status: []VarStatus{Basic, Basic, NonbasicLower, NonbasicLower}, Head: []int{0, 1}}
	var probe basisFactor
	probe.reset(2)
	if _, err := probe.load(sing.A, singular.Head); err == nil {
		t.Fatal("fixture: the warm basis is not singular")
	}

	ws = NewWorkspace()
	res, err := Solve(sing, nil, Options{Workspace: ws})
	if err != nil || res.Status != StatusOptimal {
		t.Fatalf("cold solve: %v %v", err, res.Status)
	}
	h := res.Basis.Clone()
	// The logical basis is optimal for the flat objective: this retains
	// its factor in the other slot.
	if _, err := Solve(flat, nil, Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	// The singular basis fails into the slot of h; the fallback adopts the
	// logical factor and, optimal at once, factorizes nothing.
	res, err = Solve(flat, singular, Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refactors != 0 {
		t.Fatalf("fallback computed %d factorizations; the sequence no longer isolates the failed slot", res.Refactors)
	}
	want, err = Solve(flat, singular, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "singular warm basis", snapshot(res), snapshot(want))
	for i := range ws.factor.slots {
		if sl := &ws.factor.slots[i]; sl.a != nil && !slices.Equal(sl.head, []int{2, 3}) {
			t.Fatalf("slot %d still offers head %v after a failed factorization overwrote it", i, sl.head)
		}
	}
	res, err = Solve(sing, h, Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	want, err = Solve(sing, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "warm start from the overwritten basis", snapshot(res), snapshot(want))
}

// BenchmarkWarmSiblingResolve is the adoption path end to end: a parent LP
// re-solved from its own optimal basis, then both of its children, all warm
// started from that basis through one workspace — the order in which a
// branch-and-bound worker meets them. refactors/solve is the factorizations
// actually computed; without retained factors it is 2.
func BenchmarkWarmSiblingResolve(b *testing.B) {
	f := newWarmResolveFixture(b, 25, 40, 7)
	ws := NewWorkspace()
	up := math.Min(f.tightU+0.8, f.origU)
	origL := f.p.L[f.j]
	family := func() (refactors int) {
		res, err := Solve(f.p, f.parent, Options{Workspace: ws})
		if err != nil || res.Status != StatusOptimal {
			b.Fatalf("parent: %v", err)
		}
		refactors += res.Refactors
		refactors += f.warmResolve(b, ws).Refactors
		f.p.L[f.j] = up
		res, err = Solve(f.p, f.parent, Options{PreferDual: true, Workspace: ws})
		f.p.L[f.j] = origL
		if err != nil {
			b.Fatal(err)
		}
		return refactors + res.Refactors
	}
	family() // warm the workspace
	b.ReportAllocs()
	b.ResetTimer()
	var refactors int
	for i := 0; i < b.N; i++ {
		refactors += family()
	}
	b.ReportMetric(float64(refactors)/float64(3*b.N), "refactors/solve")
}
