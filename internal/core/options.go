// Package core implements the paper's contribution: the transformation of
// the join ordering problem into a mixed integer linear program.
//
// The encoder emits the variables of Table 1 (tio/tii for join operands,
// pao for applicable predicates, lco for log-cardinalities, cto for
// cardinality thresholds, whose ladder approximates the outer operand's
// cardinality co, ci for the inner operand's) and the constraint families of
// Table 2, plus the Section 5 extensions: n-ary and correlated predicates,
// expensive predicates (on whenever a predicate has an evaluation cost and
// the metric is operator cost), operator implementation selection, and
// intermediate result properties (interesting orders). The decoder maps
// MILP solutions back to left-deep query plans.
package core

import (
	"errors"
	"fmt"
	"math"

	"milpjoin/internal/cost"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
)

// ErrInvalidOptions reports encoder options a caller could not legally
// construct results from: unknown precision values and similar input
// mistakes. It wraps the detail message so callers can test with errors.Is.
var ErrInvalidOptions = errors.New("core: invalid options")

// Precision selects the cardinality approximation tolerance, matching the
// three configurations of the paper's evaluation.
type Precision int

const (
	// PrecisionHigh approximates cardinalities within a factor of 3.
	PrecisionHigh Precision = iota
	// PrecisionMedium approximates within a factor of 10.
	PrecisionMedium
	// PrecisionLow approximates within a factor of 100.
	PrecisionLow
)

// Ratio returns the geometric threshold spacing (= tolerance factor). An
// unknown precision yields an error wrapping ErrInvalidOptions.
func (p Precision) Ratio() (float64, error) {
	switch p {
	case PrecisionHigh:
		return 3, nil
	case PrecisionMedium:
		return 10, nil
	case PrecisionLow:
		return 100, nil
	default:
		return 0, fmt.Errorf("%w: unknown precision %d", ErrInvalidOptions, int(p))
	}
}

// String names the precision.
func (p Precision) String() string {
	switch p {
	case PrecisionHigh:
		return "high"
	case PrecisionMedium:
		return "medium"
	case PrecisionLow:
		return "low"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Precisions lists the paper's three configurations.
func Precisions() []Precision {
	return []Precision{PrecisionHigh, PrecisionMedium, PrecisionLow}
}

// Options configure the encoding.
type Options struct {
	// Precision selects the threshold spacing (default PrecisionMedium).
	Precision Precision
	// CardCap bounds the representable cardinality range, as the paper's
	// Example 2 suggests; any plan with an intermediate result at the cap
	// is costed as if the result had exactly the cap cardinality.
	// Default 1e12.
	CardCap float64
	// Metric selects the objective: C_out or operator cost.
	Metric cost.Metric
	// Op is the operator priced when Metric is OperatorCost and operator
	// selection is off (default HashJoin, the paper's setting).
	Op cost.Operator

	// ChooseOperators enables the Section 5.3 extension: the MILP picks
	// a join operator per join.
	ChooseOperators bool
	// InterestingOrders enables the Section 5.4 extension: tuple-order
	// properties and a pre-sorted sort-merge variant. Requires
	// ChooseOperators.
	InterestingOrders bool
	// InitialPlan optionally seeds branch and bound with this plan's
	// model-space assignment (a "MIP start") instead of the default
	// greedy join order — the warm-start path of the plan cache, which
	// feeds incumbents from structurally similar solved queries. The
	// plan is validated and feasibility-checked; when it cannot be used
	// (a plan the cardinality cap excludes) the greedy fallback applies as
	// usual.
	InitialPlan *plan.Plan
	// Incumbents, when non-nil, is the live generalisation of
	// InitialPlan: branch and bound's workers call it at node boundaries
	// for a plan published while the solve runs, e.g. by portfolio peers
	// racing the same query, until it returns nil (nothing new), so it
	// must be safe for concurrent use. Each plan passes through the same
	// validate → AssignmentForPlan → feasibility-check path as
	// InitialPlan and is installed only when it improves the current
	// incumbent — tightening the primal bound mid-solve. A plan the
	// encoding cannot represent is dropped, and ends that worker's drain
	// until its next node boundary.
	Incumbents func() *plan.Plan

	// The search knobs, handed to branch and bound as the paper hands
	// them to Gurobi; the context's deadline is the time limit. GapTol is
	// the relative MIP gap at which search stops (default 1e-6). Threads
	// is the number of parallel workers (default 1). MaxNodes bounds
	// explored nodes (zero: none); see bb.Params.MaxNodes for how the
	// limit counts.
	GapTol   float64
	Threads  int
	MaxNodes int
	// OnEvent receives the full structured event stream of the solve:
	// cut rounds, the root LP relaxation, incumbents, bound improvements,
	// node batches, and worker lifecycle. Callbacks are serialised (never
	// concurrent) and must be fast: they run on solver goroutines, some
	// while search locks are held. Objective values include the model's
	// objective constant.
	OnEvent func(obs.Event)
	// CutRounds runs this many rounds of root Gomory mixed-integer cut
	// generation before branch and bound (0: off).
	CutRounds int
}

// Validate checks the caller-supplied option values, returning an error
// wrapping ErrInvalidOptions on bad input. A library must not panic on
// caller mistakes: every public entry point validates before encoding.
func (o Options) Validate() error {
	_, err := o.Precision.Ratio()
	return err
}

func (o Options) withDefaults() (Options, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.CardCap <= 0 {
		o.CardCap = 1e12
	}
	return o, nil
}

// ratio returns the threshold spacing. Options are validated before
// encoding, so the unknown-precision fallback is unreachable there; it
// defaults to the medium spacing for robustness.
func (o Options) ratio() float64 {
	if r, err := o.Precision.Ratio(); err == nil {
		return r
	}
	return 10
}

// thresholds builds the geometric cardinality ladder θ_r = ratio^(r+1),
// covering (1, cap]: a result whose cardinality lies in (θ_{r-1}, θ_r] is
// approximated by θ_{r-1} (and by 1 below θ_0), an underestimate within the
// tolerance factor.
func (o Options) thresholds(maxLogCard float64) []float64 {
	logRange := math.Min(maxLogCard, math.Log10(o.CardCap))
	if logRange <= 0 {
		return nil
	}
	logRatio := math.Log10(o.ratio())
	count := int(math.Ceil(logRange/logRatio)) + 1
	out := make([]float64, count)
	for r := range out {
		out[r] = math.Pow(o.ratio(), float64(r+1))
	}
	return out
}
