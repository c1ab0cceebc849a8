package joinorder

import (
	"fmt"
	"time"
)

// Budget bundles every resource limit of one optimization run: wall-clock
// time, the proven-gap tolerance at which the search may stop, the
// branch-and-bound node cap, and the parallel worker count. Carrying the
// four knobs as one value lets callers (and the hybrid decomposer) split,
// scale, and forward a budget without tracking parallel fields.
//
// A zero field means "not set": the strategy default applies.
type Budget struct {
	// TimeLimit bounds wall-clock time (zero: none). It composes with
	// the context deadline: the effective budget is the minimum.
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

// Scale returns a copy with the divisible resources (TimeLimit, MaxNodes)
// scaled by f, flooring non-zero values at 1ms / 1 node so a fraction of a
// set budget never silently becomes "unlimited". GapTol and Threads are
// per-solve qualities, not divisible quantities, and pass through.
func (b Budget) Scale(f float64) Budget {
	out := b
	if b.TimeLimit > 0 {
		out.TimeLimit = time.Duration(float64(b.TimeLimit) * f)
		if out.TimeLimit < time.Millisecond {
			out.TimeLimit = time.Millisecond
		}
	}
	if b.MaxNodes > 0 {
		out.MaxNodes = int(float64(b.MaxNodes) * f)
		if out.MaxNodes < 1 {
			out.MaxNodes = 1
		}
	}
	return out
}

// Split divides the budget into n equal shares (n <= 1 returns the budget
// unchanged).
func (b Budget) Split(n int) Budget {
	if n <= 1 {
		return b
	}
	return b.Scale(1 / float64(n))
}
