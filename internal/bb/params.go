// Package bb implements branch and bound for mixed integer linear
// programs: best-first search over LP relaxations with warm-started
// simplex solves, pseudocost branching, MIP starts and live injected
// incumbents, parallel workers, and anytime incumbent/bound reporting —
// the feature set the paper relies on from commercial MILP solvers
// (anytime behaviour, optimality gaps, parallel optimization). The search
// runs no primal heuristic of its own: incumbents come from integral node
// LPs, the MIP start, and the injection feed.
package bb

import (
	"fmt"
	"time"

	"milpjoin/internal/obs"
)

// The search's tolerances and event interval.
const (
	absGapTol         = 1e-9 // absolute gap at which a node is pruned or the search stops
	intTol            = 1e-6 // integrality tolerance
	eventNodeInterval = 256  // a node-batch event every this many explored nodes
)

// Params tune the search.
type Params struct {
	// TimeLimit bounds wall-clock time; zero means no limit.
	TimeLimit time.Duration
	// GapTol is the relative MIP gap at which search stops (default 1e-6).
	GapTol float64
	// MaxNodes bounds the number of explored nodes; zero means no limit.
	// A node is counted when it is taken from the open pool, and the
	// MaxNodes-th counted node stops the search before its LP runs: at 1
	// no LP is solved at all (the result is the MIP start, if any, with
	// Bound −Inf), and at N at most N−1 nodes solve their LPs (exactly
	// N−1 with one thread).
	MaxNodes int
	// Threads is the number of parallel workers (default 1).
	Threads int
	// Events, when non-nil, receives the full structured event stream of
	// the search: worker lifecycle, the root LP relaxation, incumbents,
	// injected incumbents, bound improvements, and periodic node-batch
	// snapshots. Events are emitted while holding the search lock, so
	// callbacks must be fast and must not call back into the solver.
	Events *obs.Emitter
	// UseDualSimplex repairs warm-started node LPs with the dual
	// simplex method instead of the composite primal phase 1.
	UseDualSimplex bool
	// InitialIncumbent optionally seeds the search with a known integer
	// solution (a "MIP start"): the structural part of a
	// computational-form assignment, length NumStructural. Logical
	// values are recomputed and the candidate is validated before
	// installation; an infeasible start is silently ignored.
	InitialIncumbent []float64
	// Incumbents, when non-nil, is a live injection feed: each call
	// returns a candidate model-space structural assignment (length
	// NumStructural; unlike InitialIncumbent not yet divided by the
	// column scales) from a concurrent portfolio peer, or nil when it has
	// nothing to offer now. Every worker calls it at node boundaries
	// until it returns nil, so it must be safe for concurrent use. Each
	// candidate is scaled, completed with logical values, revalidated
	// against the root bounds, and installed only if it improves the
	// incumbent — tightening the primal cutoff mid-solve. Infeasible or
	// worse candidates are dropped silently.
	Incumbents func() []float64
}

func (p Params) withDefaults() Params {
	if p.GapTol <= 0 {
		p.GapTol = 1e-6
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	return p
}

// Status is the outcome of a branch-and-bound run.
type Status int

const (
	// StatusOptimal means the incumbent is optimal within the gap
	// tolerances.
	StatusOptimal Status = iota
	// StatusInfeasible means no integer-feasible solution exists.
	StatusInfeasible
	// StatusUnbounded means the LP relaxation is unbounded.
	StatusUnbounded
	// StatusTimeLimit means the time limit expired; the incumbent (if
	// any) carries the best solution found.
	StatusTimeLimit
	// StatusNodeLimit means the node limit was reached.
	StatusNodeLimit
	// StatusNoProgress means the solver stopped due to repeated
	// numerical failures.
	StatusNoProgress
	// StatusCanceled means the caller's context was canceled; the
	// incumbent (if any) carries the best solution found.
	StatusCanceled
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusTimeLimit:
		return "time limit"
	case StatusNodeLimit:
		return "node limit"
	case StatusNoProgress:
		return "no progress"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of a solve.
type Result struct {
	Status       Status
	HasIncumbent bool
	X            []float64 // full computational-form solution (structural + logical)
	Obj          float64   // incumbent objective (excluding any model constant)
	Bound        float64   // proven global lower bound
	Gap          float64   // relative gap at termination
	Nodes        int
	SimplexIters int
	Elapsed      time.Duration
	// Stats aggregates per-phase effort: LP time, per-worker node counts,
	// simplex iterations, LU refactorizations, and pseudocost
	// initializations.
	Stats obs.Stats
}
