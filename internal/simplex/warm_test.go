package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// warmResolveFixture builds a reproducible LP with an optimal basis and a
// bound tightening that makes that basis primal infeasible but dual
// feasible — the branch-and-bound node state the warm path is built for.
type warmResolveFixture struct {
	p      *Problem
	parent *Basis  // caller-owned copy of the optimal basis
	j      int     // variable whose upper bound is tightened
	origU  float64 // original upper bound of j
	tightU float64 // tightened upper bound
}

func newWarmResolveFixture(t testing.TB, m, ns int, seed int64) *warmResolveFixture {
	rng := rand.New(rand.NewSource(seed))
	p := randomFeasibleLP(rng, m, ns)
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("cold solve: %v", res.Status)
	}
	f := &warmResolveFixture{p: p, parent: res.Basis.Clone(), j: -1}
	// Pick a basic structural variable resting strictly above its lower
	// bound: tightening its upper bound below the current value forces a
	// genuine dual repair.
	for j := 0; j < ns; j++ {
		if res.Basis.Status[j] == Basic && res.X[j]-p.L[j] > 0.5 && p.U[j]-res.X[j] > -1e-9 {
			f.j = j
			f.origU = p.U[j]
			f.tightU = res.X[j] - 0.4
			break
		}
	}
	if f.j < 0 {
		t.Fatalf("seed %d produced no suitable branching variable", seed)
	}
	return f
}

// warmResolve performs one node-style repair with the fixture's parent
// basis and restores the original bound.
func (f *warmResolveFixture) warmResolve(t testing.TB, ws *Workspace) *Result {
	f.p.U[f.j] = f.tightU
	res, err := Solve(f.p, f.parent, Options{PreferDual: true, Workspace: ws})
	f.p.U[f.j] = f.origU
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmResolveZeroAllocs asserts that a warm dual-simplex repair through
// a reused workspace performs no heap allocation once the workspace is
// warmed up — the core acceptance criterion of the pooled hot path.
func TestWarmResolveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	f := newWarmResolveFixture(t, 25, 40, 7)
	ws := NewWorkspace()
	for i := 0; i < 10; i++ {
		if res := f.warmResolve(t, ws); res.Status != StatusOptimal {
			t.Fatalf("warm resolve: %v", res.Status)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		f.warmResolve(t, ws)
	})
	if allocs != 0 {
		t.Errorf("warm resolve allocates %.2f objects/op, want 0", allocs)
	}
}

// TestHandedBackWorkspaceZeroAllocs asserts that a workspace reset after a
// larger problem solves a smaller one cold without heap allocation: the eta
// arena with its row file, the LU storage and every solver array from the
// larger solve serve the smaller one. This is what lets branch and bound
// hand worker arenas from one search to the next. Every BTRAN of the small
// solve is sent down the sparse pull, whose working list the workspace also
// keeps, and Reset must leave the row file empty.
//
// runtime.MemStats counts the objects every goroutine of the process
// allocates, so the test hands the workspace from the larger problem to the
// smaller one three times and takes the fewest objects a small solve
// allocated: what the solve itself allocates is the same every time.
func TestHandedBackWorkspaceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(34))
	large := randomFeasibleLP(rng, 60, 90)
	small := randomFeasibleLP(rng, 25, 40)
	ws := NewWorkspace()
	if res, err := Solve(large, nil, Options{Workspace: ws}); err != nil || res.Status != StatusOptimal {
		t.Fatalf("large solve: %v %v", res, err)
	}
	sparsePulls := 0
	btranHook = func(*basisFactor, []float64, bool) bool { sparsePulls++; return true }
	t.Cleanup(func() { btranHook = nil })

	least := uint64(math.MaxUint64)
	var bytes uint64
	for round := 0; round < 3; round++ {
		// A solve ends optimal on a fresh factor; one cut short keeps its
		// etas.
		if res, err := Solve(large, nil, Options{Workspace: ws, MaxIter: 20}); err != nil || ws.factor.etaNnz == 0 {
			t.Fatalf("cut-short solve: %v %v, %d eta entries; the check needs a row file to clear", res.Status, err, ws.factor.etaNnz)
		}
		ws.Reset()
		if f := &ws.factor; f.numEtas() != 0 || f.etaNnz != 0 || slices.ContainsFunc(f.rowHead, func(l int32) bool { return l != 0 }) {
			t.Fatal("Reset leaves eta entries in the row file")
		}
		pulls := sparsePulls
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Solve(small, nil, Options{Workspace: ws})
		runtime.ReadMemStats(&after)
		if err != nil || res.Status != StatusOptimal {
			t.Fatalf("small solve: %v %v", res, err)
		}
		if res.Iters == 0 || res.Refactors == 0 || sparsePulls == pulls {
			t.Fatalf("small solve ran %d iterations, %d factorizations and %d sparse pulls; the check needs all three",
				res.Iters, res.Refactors, sparsePulls-pulls)
		}
		if n := after.Mallocs - before.Mallocs; n < least {
			least, bytes = n, after.TotalAlloc-before.TotalAlloc
		}
	}
	if least != 0 {
		t.Errorf("cold solve through a handed-back workspace allocates %d objects (%d bytes), want 0", least, bytes)
	}
}

// TestHandedBackWorkspaceMatchesFresh passes one workspace, reset between
// solves, through problems that shrink and grow, so that eta chunks sized
// for one row count serve another, and holds every solve to a fresh
// workspace's bit for bit, factorization count included.
func TestHandedBackWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ws := NewWorkspace()
	for _, size := range [][2]int{{25, 40}, {60, 90}, {25, 40}, {8, 12}, {90, 120}, {40, 60}} {
		p := randomFeasibleLP(rng, size[0], size[1])
		got, err := Solve(p, nil, Options{Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		g := snapshot(got)
		want, err := Solve(p, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d×%d", size[0], size[1])
		requireSameBits(t, label, g, snapshot(want))
		if g.refactors != want.Refactors {
			t.Fatalf("%s: %d factorizations, a fresh workspace computes %d", label, g.refactors, want.Refactors)
		}
		ws.Reset()
	}
}

// TestWarmResolveMatchesCold cross-checks the pooled warm path against an
// independent cold solve of the tightened problem.
func TestWarmResolveMatchesCold(t *testing.T) {
	f := newWarmResolveFixture(t, 25, 40, 7)
	ws := NewWorkspace()
	warm := f.warmResolve(t, ws)
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	warmObj := warm.Obj

	f.p.U[f.j] = f.tightU
	cold, err := Solve(f.p, nil, Options{})
	f.p.U[f.j] = f.origU
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold: %v %v", err, cold.Status)
	}
	if math.Abs(warmObj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
		t.Errorf("warm obj %g vs cold %g", warmObj, cold.Obj)
	}
}

// TestDevexMatchesDantzig verifies on random LPs that devex/partial pricing
// (the default) and classic full Dantzig pricing reach the same statuses
// and optimal objectives.
func TestDevexMatchesDantzig(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		p := randomFeasibleLP(rng, 2+rng.Intn(6), 3+rng.Intn(8))
		devex, err := Solve(p, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dantzig, err := Solve(p, nil, Options{DantzigPricing: true})
		if err != nil {
			t.Fatal(err)
		}
		if devex.Status != dantzig.Status {
			t.Fatalf("trial %d: devex %v vs dantzig %v", trial, devex.Status, dantzig.Status)
		}
		if devex.Status != StatusOptimal {
			continue
		}
		if math.Abs(devex.Obj-dantzig.Obj) > 1e-5*(1+math.Abs(dantzig.Obj)) {
			t.Fatalf("trial %d: devex obj %g vs dantzig %g", trial, devex.Obj, dantzig.Obj)
		}
		checkKKT(t, p, devex)
	}
}

// TestWorkspaceReuseAcrossSizes drives one workspace through problems of
// varying dimensions, interleaved, and checks every result against a
// workspace-free solve. Shrinking then growing again exercises the
// grow-only buffer management.
func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ws := NewWorkspace()
	dims := [][2]int{{8, 12}, {2, 3}, {15, 25}, {4, 6}, {15, 30}, {3, 9}}
	for round := 0; round < 3; round++ {
		for _, d := range dims {
			p := randomFeasibleLP(rng, d[0], d[1])
			got, err := Solve(p, nil, Options{Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Solve(p, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("%dx%d: workspace %v vs fresh %v", d[0], d[1], got.Status, want.Status)
			}
			if got.Status == StatusOptimal {
				if math.Abs(got.Obj-want.Obj) > 1e-6*(1+math.Abs(want.Obj)) {
					t.Fatalf("%dx%d: workspace obj %g vs fresh %g", d[0], d[1], got.Obj, want.Obj)
				}
				checkKKT(t, p, got)
			}
		}
	}
}

// TestWorkspaceReuseAcrossRowCounts drives one workspace through LPs of 5,
// 300, 70 and 300 rows, each solved cold and then warm from its optimal
// basis after a bound tightening (primal repair and dual), and holds every
// result to the same solve on a fresh workspace with ==. Between row counts
// the sparse FTRAN's bitsets, the retained factors' pivot-row maps and the
// ratio test's candidate buffer shrink and regrow; what a solve leaves in
// them must not reach the next one.
func TestWorkspaceReuseAcrossRowCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shared := NewWorkspace()
	check := func(label string, p *Problem, warm *Basis, opts Options) *Result {
		t.Helper()
		opts.Workspace = shared
		got, err := Solve(p, warm, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		opts.Workspace = NewWorkspace()
		want, err := Solve(p, warm, opts)
		if err != nil {
			t.Fatalf("%s, fresh workspace: %v", label, err)
		}
		if got.Status != want.Status || got.Iters != want.Iters || got.Obj != want.Obj ||
			!slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y) {
			t.Fatalf("%s: reused workspace gives %v after %d iterations, obj %v; a fresh one %v after %d, obj %v (or X, Y differ)",
				label, got.Status, got.Iters, got.Obj, want.Status, want.Iters, want.Obj)
		}
		return got
	}
	for _, m := range []int{5, 300, 70, 300} {
		ns := m + m/2
		p := randomFeasibleLPWithDensity(rng, m, ns, min(1, 6/float64(ns)))
		cold := check(fmt.Sprintf("m=%d cold", m), p, nil, Options{})
		if cold.Status != StatusOptimal {
			t.Fatalf("m=%d cold: %v", m, cold.Status)
		}
		basis := cold.Basis.Clone()
		j := slices.IndexFunc(basis.Status[:ns], func(st VarStatus) bool { return st == Basic })
		if j < 0 {
			t.Fatalf("m=%d: no basic structural column to branch on", m)
		}
		origU := p.U[j]
		p.U[j] = (p.L[j] + cold.X[j]) / 2
		for _, dual := range []bool{false, true} {
			check(fmt.Sprintf("m=%d warm (dual %v)", m, dual), p, basis, Options{PreferDual: dual})
		}
		p.U[j] = origU
	}
}

// TestWarmStartSurvivesRefactorization forces frequent eta-file rebuilds
// (RefactorEvery: 2) through random warm-started bound-tightening
// sequences, asserting the dual repair still reaches the primal-verified
// optimum. This covers the reusable-factorization path: every refactorize
// call reuses the workspace's LU and scratch buffers.
func TestWarmStartSurvivesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	ws := NewWorkspace()
	for trial := 0; trial < 40; trial++ {
		p := randomFeasibleLP(rng, 2+rng.Intn(5), 3+rng.Intn(6))
		res, err := Solve(p, nil, Options{Workspace: ws, RefactorEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusOptimal {
			continue
		}
		basis := res.Basis.Clone()
		x := append([]float64(nil), res.X...)
		for step := 0; step < 1+rng.Intn(3); step++ {
			j := rng.Intn(p.NumCols())
			mid := x[j] + rng.NormFloat64()*0.5
			if rng.Intn(2) == 0 {
				if mid < p.U[j] {
					p.U[j] = mid
				}
			} else {
				if mid > p.L[j] {
					p.L[j] = mid
				}
			}
			warm, err := Solve(p, basis, Options{PreferDual: true, Workspace: ws, RefactorEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(p, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d step %d: warm %v vs cold %v", trial, step, warm.Status, cold.Status)
			}
			if warm.Status != StatusOptimal {
				break
			}
			if math.Abs(warm.Obj-cold.Obj) > 1e-5*(1+math.Abs(cold.Obj)) {
				t.Fatalf("trial %d step %d: warm obj %g vs cold %g", trial, step, warm.Obj, cold.Obj)
			}
			checkKKT(t, p, warm)
			basis = warm.Basis.Clone()
			x = append(x[:0], warm.X...)
		}
	}
}

// BenchmarkWarmResolve measures one branch-and-bound-style node repair: a
// single bound tightening against a parent-optimal basis, solved warm with
// the dual simplex through a pooled workspace. The steady state must be
// allocation-free (see TestWarmResolveZeroAllocs).
func BenchmarkWarmResolve(b *testing.B) {
	f := newWarmResolveFixture(b, 25, 40, 7)
	ws := NewWorkspace()
	for i := 0; i < 10; i++ {
		f.warmResolve(b, ws) // warm the workspace
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.warmResolve(b, ws)
	}
}
