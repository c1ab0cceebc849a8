// Package simplex implements a revised primal simplex method for linear
// programs in computational form with general variable bounds:
//
//	minimize    cᵀx
//	subject to  A·x = b,   l ≤ x ≤ u
//
// where the last m columns of A are the identity (one logical variable per
// row). The solver uses a sparse LU factorization of the basis with
// product-form-of-inverse eta updates, a composite phase-1 for feasibility,
// devex reference-framework pricing with partial (candidate-list) scans and
// a Bland anti-cycling fallback, and supports warm starts from a
// caller-supplied basis — the workhorse configuration for branch-and-bound
// node solves. A per-worker Workspace makes warm re-solves allocation-free.
package simplex

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"milpjoin/internal/sparse"
)

// Problem is a linear program in computational (equality) form. The caller
// guarantees that the last m columns of A form an identity block (logical
// variables), which gives the solver a trivially nonsingular fallback basis.
type Problem struct {
	A *sparse.CSC // m×n constraint matrix, n ≥ m
	B []float64   // right-hand side, length m
	C []float64   // objective coefficients, length n
	L []float64   // lower bounds, length n (may be -Inf)
	U []float64   // upper bounds, length n (may be +Inf)
}

// NumRows returns the number of constraints m.
func (p *Problem) NumRows() int { return p.A.Rows }

// NumCols returns the number of variables n (structural + logical).
func (p *Problem) NumCols() int { return p.A.Cols }

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if err := p.checkShape(); err != nil {
		return err
	}
	_, err := p.checkColumns(0)
	return err
}

// checkShape checks that the matrix is there and every vector has its length.
func (p *Problem) checkShape() error {
	if p.A == nil {
		return errors.New("simplex: nil constraint matrix")
	}
	m, n := p.A.Rows, p.A.Cols
	if len(p.B) != m {
		return fmt.Errorf("simplex: rhs length %d, want %d", len(p.B), m)
	}
	if len(p.C) != n || len(p.L) != n || len(p.U) != n {
		return fmt.Errorf("simplex: c/l/u lengths %d/%d/%d, want %d", len(p.C), len(p.L), len(p.U), n)
	}
	if n < m {
		return fmt.Errorf("simplex: %d variables for %d rows; logical columns missing", n, m)
	}
	return nil
}

// checkColumns walks the bounds and costs of a problem of the right shape
// once for both things Solve must know of them: an error for NaN, and whether
// some column's bounds are crossed by more than tol. Crossed bounds are not an
// error: they make the problem infeasible, which Solve reports once no column
// has raised one, and a column with l > u is not looked at further.
func (p *Problem) checkColumns(tol float64) (crossed bool, err error) {
	for j, l := range p.L {
		u := p.U[j]
		if l > u {
			crossed = crossed || l > u+tol
			continue
		}
		if math.IsNaN(l) || math.IsNaN(u) || math.IsNaN(p.C[j]) {
			return false, fmt.Errorf("simplex: NaN in column %d", j)
		}
	}
	return crossed, nil
}

// VarStatus describes the role of a variable in the current basis.
type VarStatus int8

const (
	// NonbasicLower marks a nonbasic variable resting at its lower bound.
	NonbasicLower VarStatus = iota
	// NonbasicUpper marks a nonbasic variable resting at its upper bound.
	NonbasicUpper
	// NonbasicFree marks a nonbasic free variable resting at zero.
	NonbasicFree
	// Basic marks a basic variable.
	Basic
)

// Basis captures the state needed to warm start the simplex method.
type Basis struct {
	Status []VarStatus // per-variable status, length n
	Head   []int       // indices of basic variables, length m
}

// Clone returns a deep copy of the basis.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	c := &Basis{
		Status: make([]VarStatus, len(b.Status)),
		Head:   make([]int, len(b.Head)),
	}
	copy(c.Status, b.Status)
	copy(c.Head, b.Head)
	return c
}

// valid performs a cheap consistency check of a warm-start basis against a
// problem of n variables and m rows.
func (b *Basis) valid(m, n int) bool {
	return b.validIn(m, n, make([]bool, n))
}

// validIn is valid with caller-provided scratch (length ≥ n, all false on
// entry; restored to all false before returning) so the warm path avoids
// allocating.
func (b *Basis) validIn(m, n int, seen []bool) bool {
	if b == nil || len(b.Status) != n || len(b.Head) != m {
		return false
	}
	basics := 0
	for _, s := range b.Status {
		if s == Basic {
			basics++
		}
	}
	if basics != m {
		return false
	}
	ok := true
	marked := 0
	for _, j := range b.Head {
		if j < 0 || j >= n || b.Status[j] != Basic || seen[j] {
			ok = false
			break
		}
		seen[j] = true
		marked++
	}
	for _, j := range b.Head[:marked] {
		seen[j] = false
	}
	return ok
}

// Status is the outcome of a simplex solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was exhausted.
	StatusIterLimit
	// StatusAborted means the stop flag interrupted the solve.
	StatusAborted
)

// String renders the status for logs.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration limit"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of a solve.
//
// When the solve used a caller-supplied Workspace, the Result and its
// slices (X, Y, Basis) alias workspace storage and are only valid until
// the next Solve with that workspace; copy anything that must outlive it.
type Result struct {
	Status Status
	Obj    float64   // objective value of X (meaningful for Optimal)
	X      []float64 // primal solution, length n
	Y      []float64 // dual values (row prices), length m, for Optimal
	Basis  *Basis    // final basis, usable for warm starts
	Iters  int       // simplex iterations across both phases
	// Refactors counts the sparse LU factorizations computed during the
	// solve (basis installs, periodic rebuilds, end-of-solve refreshes and
	// repair resets) — the dominant per-solve linear-algebra cost besides
	// pivoting, surfaced for the observability layer. A basis whose fresh
	// factorization the workspace still holds is adopted, not counted, so
	// the number depends on what the workspace solved before; nothing
	// else in the Result does.
	Refactors int
	// Pricing reports pricing-rule behaviour during the solve.
	Pricing PricingStats
}

// PricingStats counts pricing-rule behaviour during one solve, surfaced so
// performance work can see how devex and partial pricing behave on a
// workload.
type PricingStats struct {
	// DevexResets counts devex reference-framework resets triggered by
	// weight blow-up.
	DevexResets int
	// ScannedCols counts columns actually priced across all pricing
	// passes (primal partial scans and dual candidate passes).
	ScannedCols int
	// TotalCols counts the columns a full-pricing rule would have priced
	// in the same passes; ScannedCols/TotalCols is the scan fraction.
	TotalCols int
}

// add accumulates counters from another solve.
func (p *PricingStats) Add(o PricingStats) {
	p.DevexResets += o.DevexResets
	p.ScannedCols += o.ScannedCols
	p.TotalCols += o.TotalCols
}

// The solver's tolerances and its anti-cycling trigger. feasTol must stay a
// constant: a workspace's remembered per-column tolerances (solver.init)
// carry no record of the tolerance they were scaled from.
const (
	feasTol    = 1e-7 // primal feasibility
	optTol     = 1e-7 // reduced-cost optimality
	pivotTol   = 1e-8 // smallest ratio-test pivot accepted
	blandAfter = 200  // consecutive degenerate iterations before Bland's rule
)

// Options tune the solver.
type Options struct {
	// MaxIter bounds total simplex iterations; 0 means a generous
	// default proportional to the problem size.
	MaxIter int
	// RefactorEvery bounds the eta file length before refactorization
	// (default 64).
	RefactorEvery int
	// Stop, when non-nil, aborts the solve once set.
	Stop *atomic.Bool
	// PreferDual tries dual simplex iterations first when a warm-start
	// basis is primal infeasible but dual feasible — the typical state
	// of a branch-and-bound node after its parent's bound change. Falls
	// back to the composite primal phase 1 automatically.
	PreferDual bool
	// Workspace, when non-nil, supplies a reusable arena for every solver
	// array, making warm re-solves allocation-free. The Result returned
	// from such a solve aliases workspace storage (see Result). A
	// workspace must not be shared between concurrent solves.
	Workspace *Workspace
	// DantzigPricing disables devex weights and partial pricing in favour
	// of the classic full Dantzig rule (price every column, largest
	// reduced cost enters). Intended for ablations and equivalence tests.
	DantzigPricing bool
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200*(m+n) + 10000
	}
	if o.RefactorEvery <= 0 {
		o.RefactorEvery = 64
	}
	return o
}
