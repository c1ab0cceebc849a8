package joinorder

import (
	"fmt"
	"time"
)

// Budget bundles every resource limit of one optimization run: wall-clock
// time, the proven-gap tolerance at which the search may stop, the
// branch-and-bound node cap, and the parallel worker count. Carrying the
// four knobs as one value lets callers forward a budget without tracking
// parallel fields.
//
// A zero field means "not set": the strategy default applies.
type Budget struct {
	// TimeLimit bounds wall-clock time (zero: none). It becomes a
	// deadline on the strategy's context, so the earlier of it and the
	// caller's deadline ends the run.
	TimeLimit time.Duration
	// GapTol is the relative optimality gap at which the MILP search
	// stops (zero: the 1e-6 default).
	GapTol float64
	// MaxNodes bounds explored branch-and-bound nodes (zero: none). The
	// MaxNodes-th node counted stops the search before its LP runs, so
	// MaxNodes 1 solves no LP and returns the MIP start with Bound −Inf,
	// and MaxNodes N solves at most N−1 node LPs, exactly N−1 with one
	// thread (TestMaxNodesCountsBeforeTheLP).
	MaxNodes int
	// Threads is the parallel worker count for strategies that support
	// it (zero: 1).
	Threads int
}

// validate rejects negative fields; zero means unset and is always valid.
func (b Budget) validate() error {
	if b.TimeLimit < 0 {
		return fmt.Errorf("%w: negative budget time limit %v", ErrInvalidOptions, b.TimeLimit)
	}
	if b.GapTol < 0 {
		return fmt.Errorf("%w: negative budget gap tolerance %g", ErrInvalidOptions, b.GapTol)
	}
	if b.MaxNodes < 0 {
		return fmt.Errorf("%w: negative budget node limit %d", ErrInvalidOptions, b.MaxNodes)
	}
	if b.Threads < 0 {
		return fmt.Errorf("%w: negative budget thread count %d", ErrInvalidOptions, b.Threads)
	}
	return nil
}
