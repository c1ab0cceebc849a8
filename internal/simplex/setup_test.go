package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// withColumns returns a shallow copy of p whose bounds and costs are copies
// that edit may change.
func withColumns(p *Problem, edit func(q *Problem)) *Problem {
	q := &Problem{A: p.A, B: p.B, C: slices.Clone(p.C), L: slices.Clone(p.L), U: slices.Clone(p.U)}
	edit(q)
	return q
}

// TestProblemChecksThroughReusedWorkspace feeds Solve, through a workspace
// that has just solved a valid problem, every input its set-up pass rejects
// or short-circuits: the messages and their precedence are the ones the
// separate passes gave (shape, then NaN in any column whose bounds are not
// crossed, then infeasible by crossed bounds), nothing of a rejected problem
// sticks to the workspace, and Validate agrees with Solve on the errors.
func TestProblemChecksThroughReusedWorkspace(t *testing.T) {
	nan := math.NaN()
	good := randomFeasibleLP(rand.New(rand.NewSource(5)), 6, 9)
	want, err := Solve(good, nil, Options{})
	if err != nil || want.Status != StatusOptimal {
		t.Fatalf("fixture: %v %v", err, want.Status)
	}
	wantSnap := snapshot(want)

	for _, tc := range []struct {
		name       string
		p          *Problem
		err        string // "" when Solve answers
		infeasible bool   // by crossed bounds
	}{
		{"NaN in L", withColumns(good, func(q *Problem) { q.L[2] = nan }), "simplex: NaN in column 2", false},
		{"NaN in U", withColumns(good, func(q *Problem) { q.U[14] = nan }), "simplex: NaN in column 14", false},
		{"NaN in C", withColumns(good, func(q *Problem) { q.C[0] = nan }), "simplex: NaN in column 0", false},
		{"first NaN wins", withColumns(good, func(q *Problem) { q.C[7], q.L[3] = nan, nan }), "simplex: NaN in column 3", false},
		{"nil matrix", &Problem{B: good.B, C: good.C, L: good.L, U: good.U}, "simplex: nil constraint matrix", false},
		{"short B", &Problem{A: good.A, B: good.B[:5], C: good.C, L: good.L, U: good.U}, "simplex: rhs length 5, want 6", false},
		{"short C", &Problem{A: good.A, B: good.B, C: good.C[:14], L: good.L, U: good.U}, "simplex: c/l/u lengths 14/15/15, want 15", false},
		{"short L", &Problem{A: good.A, B: good.B, C: good.C, L: good.L[:3], U: good.U}, "simplex: c/l/u lengths 15/3/15, want 15", false},
		{"short U, NaN elsewhere", withColumns(good, func(q *Problem) { q.U = q.U[:0]; q.L[1] = nan }), "simplex: c/l/u lengths 15/15/0, want 15", false},
		{"crossed bounds", withColumns(good, func(q *Problem) { q.L[4], q.U[4] = 1, 0.5 }), "", true},
		{"NaN after crossed bounds", withColumns(good, func(q *Problem) { q.L[1], q.U[1], q.U[8] = 3, 2, nan }), "simplex: NaN in column 8", false},
		{"NaN before crossed bounds", withColumns(good, func(q *Problem) { q.C[1], q.L[8], q.U[8] = nan, 3, 2 }), "simplex: NaN in column 1", false},
		{"NaN cost of a crossed column", withColumns(good, func(q *Problem) { q.L[4], q.U[4], q.C[4] = 1, 0.5, nan }), "", true},
		{"crossed within feasTol", withColumns(good, func(q *Problem) { q.L[4] = q.U[4] + 1e-9 }), "", false},
	} {
		ws := NewWorkspace()
		if _, err := Solve(good, nil, Options{Workspace: ws}); err != nil {
			t.Fatal(err)
		}
		res, err := Solve(tc.p, nil, Options{Workspace: ws})
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: Solve error %v, want %q", tc.name, err, tc.err)
			}
			if verr := tc.p.Validate(); verr == nil || verr.Error() != tc.err {
				t.Errorf("%s: Validate error %v, want %q", tc.name, verr, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		default:
			if verr := tc.p.Validate(); verr != nil {
				t.Errorf("%s: Validate error %v", tc.name, verr)
			}
			if got := res.Status == StatusInfeasible && res.Iters == 0 && res.X == nil; got != tc.infeasible {
				t.Errorf("%s: status %v after %d iterations, infeasible by crossed bounds: want %v", tc.name, res.Status, res.Iters, tc.infeasible)
			}
			fresh, err := Solve(tc.p, nil, Options{})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			requireSameBits(t, tc.name, snapshot(res), snapshot(fresh))
		}
		again, err := Solve(good, nil, Options{Workspace: ws})
		if err != nil {
			t.Fatalf("%s: valid problem afterwards: %v", tc.name, err)
		}
		requireSameBits(t, tc.name+": valid problem afterwards", snapshot(again), wantSnap)
	}
}

// requireTolerances fails unless the scaled tolerances a workspace holds are,
// bit for bit, the ones computed from the problem's bounds from scratch.
func requireTolerances(t *testing.T, label string, ws *Workspace, p *Problem) {
	t.Helper()
	for j := range p.L {
		wantL, wantU := feasTol, feasTol
		if l := p.L[j]; !math.IsInf(l, 0) {
			wantL *= 1 + math.Abs(l)
		}
		if u := p.U[j]; !math.IsInf(u, 0) {
			wantU *= 1 + math.Abs(u)
		}
		if ws.tolL[j] != wantL || ws.tolU[j] != wantU {
			t.Fatalf("%s: column %d has tolerances %v/%v, its bounds %v/%v give %v/%v", label, j, ws.tolL[j], ws.tolU[j], p.L[j], p.U[j], wantL, wantU)
		}
	}
}

// TestRememberedTolerancesMatchFreshWorkspace drives one workspace through
// everything that must make it forget or update the tolerances it remembers
// — problems of other sizes (growing into new storage and shrinking back),
// another problem of the same size, a bound moving back and forth between
// two values and to infinity — and after every solve holds its tolerances
// to a from-scratch computation and its result to a new workspace's.
func TestRememberedTolerancesMatchFreshWorkspace(t *testing.T) {
	small := randomFeasibleLP(rand.New(rand.NewSource(1)), 10, 14)
	large := randomFeasibleLP(rand.New(rand.NewSource(2)), 25, 40)
	other := randomFeasibleLP(rand.New(rand.NewSource(3)), 25, 40)
	// Zero bounds are what freshly grown storage looks like.
	for j := 0; j < 40; j += 3 {
		large.L[j], other.U[j] = 0, 0
	}

	ws := NewWorkspace()
	step := 0
	solve := func(p *Problem, warm *Basis) solveSnapshot {
		t.Helper()
		step++
		label := fmt.Sprintf("solve %d", step)
		res, err := Solve(p, warm, Options{Workspace: ws})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := snapshot(res)
		fresh, err := Solve(p, warm, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameBits(t, label, got, snapshot(fresh))
		requireTolerances(t, label, ws, p)
		return got
	}

	solve(small, nil)
	root := solve(large, nil)
	solve(other, nil)
	solve(small, nil)
	solve(large, nil)
	solve(other, nil)
	solve(large, nil)

	if root.status != StatusOptimal {
		t.Fatalf("fixture: root LP %v", root.status)
	}
	j := branchVar(large, root)
	if j < 0 {
		t.Fatal("fixture: nothing to branch on")
	}
	lo, hi := root.x[j]-0.4, large.U[j]
	for _, u := range []float64{lo, hi, lo, math.Inf(1), lo, hi} {
		large.U[j] = u
		solve(large, root.basis())
	}
}
