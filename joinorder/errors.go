package joinorder

import "errors"

// The package's typed errors. Every error returned from the public API
// wraps one of these sentinels (or comes from the standard library), so
// callers can branch with errors.Is instead of string matching — and no
// panic is reachable from public-API input.
var (
	// ErrInvalidQuery reports a query that fails validation (nil, fewer
	// than two tables, out-of-range predicate references, …).
	ErrInvalidQuery = errors.New("joinorder: invalid query")

	// ErrInvalidOptions reports option values no strategy can honor
	// (unknown precision or metric, threshold ratio ≤ 1, negative
	// budgets, …).
	ErrInvalidOptions = errors.New("joinorder: invalid options")

	// ErrUnknownStrategy reports an Options.Strategy name that is not
	// in the registry; Strategies() lists the valid names.
	ErrUnknownStrategy = errors.New("joinorder: unknown strategy")

	// ErrInfeasible reports that the strategy proved no plan exists
	// under its constraints (for example a MILP whose cardinality cap
	// excludes every join order).
	ErrInfeasible = errors.New("joinorder: no feasible plan")

	// ErrCanceled reports that the caller's context ended, by cancel or
	// by its own deadline, before the strategy found any plan to return.
	// Strategies with anytime behaviour return a Result with
	// StatusCanceled or StatusTimeLimit instead once they hold an
	// incumbent.
	ErrCanceled = errors.New("joinorder: optimization canceled")

	// ErrNoPlan reports that the strategy terminated without a plan for
	// a reason other than infeasibility or cancellation — a
	// Budget.TimeLimit that ran out before the first plan, or a query
	// outside the strategy's reach (too many tables for DP, cyclic join
	// graph for IKKBZ).
	ErrNoPlan = errors.New("joinorder: no plan found")
)
