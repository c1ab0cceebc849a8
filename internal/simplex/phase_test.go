package simplex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refInfeasibility is the summing test the primal loop used to pick its
// phase with, before it kept a count: the total bound violation of the basic
// variables beyond their scaled tolerances.
func refInfeasibility(s *solver) float64 {
	var sum float64
	for _, j := range s.head {
		if v := s.p.L[j] - s.x[j]; v > s.tolL[j] {
			sum += v
		}
		if v := s.x[j] - s.p.U[j]; v > s.tolU[j] {
			sum += v
		}
	}
	return sum
}

// refBasicCosts is the from-scratch basic objective the primal loop used to
// rebuild every iteration: phase-1 infeasibility gradients or phase-2 costs.
func refBasicCosts(s *solver, phase1 bool, cB []float64) {
	for k, j := range s.head {
		if phase1 {
			switch {
			case s.x[j] < s.p.L[j]-s.tolL[j]:
				cB[k] = -1
			case s.x[j] > s.p.U[j]+s.tolU[j]:
				cB[k] = 1
			default:
				cB[k] = 0
			}
		} else {
			cB[k] = s.p.C[j]
		}
	}
}

// requirePhaseState compares the phase state the solver keeps — infeasible
// flags and their count, phase-1 gradient, phase-2 costs — with what a pass
// over all rows computes from x and head, and reports whether the state is
// phase 1.
func requirePhaseState(t *testing.T, label string, s *solver) (phase1 bool) {
	t.Helper()
	phase1 = refInfeasibility(s) > 0
	if (s.nInfeasible > 0) != phase1 {
		t.Fatalf("%s: count %d, infeasibility %g", label, s.nInfeasible, refInfeasibility(s))
	}
	flagged := 0
	for _, f := range s.infeas {
		if f {
			flagged++
		}
	}
	if flagged != s.nInfeasible {
		t.Fatalf("%s: count %d but %d flags set", label, s.nInfeasible, flagged)
	}
	cB := make([]float64, s.m)
	for _, ph := range []struct {
		phase1 bool
		kept   []float64
		name   string
	}{{true, s.grad, "gradient"}, {false, s.cost, "cost"}} {
		refBasicCosts(s, ph.phase1, cB)
		for k := range cB {
			if ph.kept[k] != cB[k] {
				t.Fatalf("%s, position %d: %s %g, from scratch %g", label, k, ph.name, ph.kept[k], cB[k])
			}
		}
	}
	return phase1
}

// requireColumnState checks what the next entering column's FTRAN relies on:
// wInd lists, strictly ascending, exactly the positions where w is nonzero.
func requireColumnState(t *testing.T, label string, s *solver) {
	t.Helper()
	if !slices.IsSorted(s.wInd) || len(slices.Compact(slices.Clone(s.wInd))) != len(s.wInd) {
		t.Fatalf("%s: wInd %v is not strictly ascending", label, s.wInd)
	}
	for k, wk := range s.w {
		if _, listed := slices.BinarySearch(s.wInd, k); listed != (wk != 0) {
			t.Fatalf("%s: w[%d] = %v, listed in wInd: %v", label, k, wk, listed)
		}
	}
}

// TestPhaseStateMatchesRecompute stops a cold solve after every iteration
// count it passes through and checks the phase state the solver maintained
// incrementally, and the transformed column's index list. The LPs start from a slack basis that violates their ≥ and =
// rows, so a good share of the iterations are phase 1; a stop at iteration i
// comes before the periodic refactorization, so up to RefactorEvery
// iterations of incremental upkeep are behind each comparison.
func TestPhaseStateMatchesRecompute(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic; the quadratic re-solving takes 10 s instrumented")
	}
	for _, tc := range []struct {
		seed    int64
		m, ns   int
		density float64
	}{
		{seed: 3, m: 40, ns: 50, density: 0.7},
		{seed: 4, m: 100, ns: 80, density: 0.05},
		{seed: 5, m: 200, ns: 160, density: 0.02},
	} {
		p := randomFeasibleLPWithDensity(rand.New(rand.NewSource(tc.seed)), tc.m, tc.ns, tc.density)
		full, err := Solve(p, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != StatusOptimal {
			t.Fatalf("seed %d: %v", tc.seed, full.Status)
		}
		total := full.Iters
		ws := NewWorkspace()
		phase1Iters := 0
		for i := 1; i <= total; i++ {
			res, err := Solve(p, nil, Options{MaxIter: i, Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusIterLimit || res.Iters != i {
				t.Fatalf("seed %d: stop at %d gave %v after %d iterations", tc.seed, i, res.Status, res.Iters)
			}
			label := fmt.Sprintf("seed %d, iteration %d", tc.seed, i)
			if requirePhaseState(t, label, &ws.sol) {
				phase1Iters++
			}
			requireColumnState(t, label, &ws.sol)
		}
		if 10*phase1Iters < 3*total {
			t.Errorf("seed %d: %d of %d iterations in phase 1, want at least 30%%", tc.seed, phase1Iters, total)
		}
	}
}

// TestPhaseStateRebuiltAfterDualLoop stops a warm solve inside the dual
// loop, which moves x and head without keeping the phase state and here gives
// up on the iteration limit without a refresh: the primal loop it hands over
// to must start from a rebuilt state, not from the one the warm start left.
func TestPhaseStateRebuiltAfterDualLoop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := newWarmResolveFixture(t, 40, 60, seed)
		ws := NewWorkspace()
		f.p.U[f.j] = f.tightU
		res, err := Solve(f.p, f.parent, Options{PreferDual: true, MaxIter: 1, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusIterLimit || res.Iters != 1 {
			t.Fatalf("seed %d: %v after %d iterations, want the limit after one dual pivot", seed, res.Status, res.Iters)
		}
		if slices.Equal(ws.sol.head, f.parent.Head) {
			t.Fatalf("seed %d: the dual loop did not pivot", seed)
		}
		requirePhaseState(t, fmt.Sprintf("seed %d", seed), &ws.sol)
		requireColumnState(t, fmt.Sprintf("seed %d", seed), &ws.sol)
	}
}
