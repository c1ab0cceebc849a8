// Package joinorder is the public entry point of the milpjoin library: a
// unified, context-aware API over every join-ordering strategy the
// repository implements — the paper's MILP encoding (Trummer & Koch,
// SIGMOD 2017) solved by the built-in branch-and-bound solver, the
// classical dynamic-programming baselines, IKKBZ, greedy, and a
// gradient-descent search over join orders.
//
// The one-call form dispatches through the strategy registry:
//
//	res, err := joinorder.Optimize(ctx, query, joinorder.Options{
//		Strategy: "milp",
//		Budget:   joinorder.Budget{TimeLimit: 5 * time.Second},
//	})
//
// Cancellation is first-class, matching the paper's anytime selling
// point: cancel the context mid-solve and the MILP strategy returns
// promptly with StatusCanceled carrying the best plan found so far plus a
// proven lower bound on the optimum. Options.Budget.TimeLimit is a
// deadline on the same context, so a run has one clock: whichever
// deadline comes first, the caller's or the budget's, ends every anytime
// strategy with StatusTimeLimit (a proven StatusOptimal stands).
// Strategies without anytime behaviour (the DP baselines) return
// ErrNoPlan when the budget runs out and ErrCanceled when the caller's
// context ends.
//
// The internal/ packages (encoder, solver, simplex, baselines) are
// implementation detail; their APIs may change freely between versions.
package joinorder

import (
	"context"
	"fmt"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
	"milpjoin/internal/portfolio"
	"milpjoin/internal/qopt"
)

// Query describes a select-project-join query: base tables with
// cardinalities and join predicates with selectivities. It is the
// library's query representation, re-exported from the internal model so
// external callers can construct queries directly.
type Query = qopt.Query

// Table is a base relation of a Query.
type Table = qopt.Table

// Predicate is a join or selection predicate of a Query.
type Predicate = qopt.Predicate

// CorrelatedGroup marks predicates with correlated selectivities.
type CorrelatedGroup = qopt.CorrelatedGroup

// Plan is a left-deep join plan: a permutation of the query's tables,
// optionally annotated with a join operator per join.
type Plan = plan.Plan

// Tree is a (possibly bushy) join tree, produced by the exact bushy
// strategies and derivable from any Plan via Plan.LeftDeep.
type Tree = plan.Tree

// Metric selects how plans are priced.
type Metric = cost.Metric

// Operator is a join operator implementation.
type Operator = cost.Operator

// Precision selects the MILP cardinality approximation tolerance.
type Precision = core.Precision

// Re-exported cost-model and precision constants.
const (
	// Cout minimizes the sum of intermediate result cardinalities.
	Cout = cost.Cout
	// OperatorCost minimizes summed per-join operator costs.
	OperatorCost = cost.OperatorCost

	// HashJoin, SortMergeJoin, and BlockNestedLoopJoin select the
	// operator priced under OperatorCost.
	HashJoin            = cost.HashJoin
	SortMergeJoin       = cost.SortMergeJoin
	BlockNestedLoopJoin = cost.BlockNestedLoopJoin

	// PrecisionHigh/Medium/Low approximate cardinalities within a
	// factor of 3, 10, and 100 respectively (MILP strategy only).
	PrecisionHigh   = core.PrecisionHigh
	PrecisionMedium = core.PrecisionMedium
	PrecisionLow    = core.PrecisionLow
)

// Event is one observation from the solver's structured event stream:
// cut rounds, the root LP relaxation, incumbents, bound improvements,
// periodic node batches, and worker lifecycle. Events marshal to JSON and render as one-line log entries via
// String.
type Event = obs.Event

// EventKind classifies an Event.
type EventKind = obs.EventKind

// Stats aggregates per-phase solver effort: wall time per phase, simplex
// iterations, LU refactorizations, pseudocost initializations, peak
// open-node count, and per-worker node counts. Stats
// marshal to JSON and render as a multi-line report via String.
type Stats = obs.Stats

// Event kinds observable on the stream.
const (
	KindLPRelaxation = obs.KindLPRelaxation
	KindIncumbent    = obs.KindIncumbent
	KindBound        = obs.KindBound
	KindCutRound     = obs.KindCutRound
	KindNodeBatch    = obs.KindNodeBatch
	KindWorkerStart  = obs.KindWorkerStart
	KindWorkerStop   = obs.KindWorkerStop

	// Cache-layer kinds, emitted by the joinorder/cache front-end on the
	// same stream: plan served from cache, lookup miss, request coalesced
	// into an in-flight identical solve, cached plan injected as a MIP
	// start, and deadline-degraded serving.
	KindCacheHit       = obs.KindCacheHit
	KindCacheMiss      = obs.KindCacheMiss
	KindCacheCoalesced = obs.KindCacheCoalesced
	KindWarmStart      = obs.KindWarmStart
	KindDegraded       = obs.KindDegraded

	// Portfolio kinds, observable when Strategy is "auto": a peer
	// incumbent installed mid-solve by branch and bound, member
	// lifecycle, and the race outcome. Events on a portfolio stream
	// carry the emitting member in Event.Strategy, and the incumbent/
	// bound monotonicity guarantees hold per member, not globally.
	KindInjected      = obs.KindInjected
	KindStrategyStart = obs.KindStrategyStart
	KindStrategyStop  = obs.KindStrategyStop
	KindWinner        = obs.KindWinner
)

// PlanUpdate is one anytime plan improvement surfaced by a strategy: the
// strategy's new best plan with its exact cost under the options' cost
// model. Strategies that search in a transformed space (the MILP) surface
// their trajectory on the event stream instead and report the decoded plan
// once, on completion.
type PlanUpdate struct {
	// Strategy is the reporting strategy (the portfolio member name
	// under "auto").
	Strategy string
	// Plan is the new best left-deep plan. Treat it as immutable; it may
	// be shared with concurrent portfolio members.
	Plan *Plan
	// Cost is the plan's exact cost under the options' cost model.
	Cost float64
	// Elapsed is the time since the strategy started.
	Elapsed time.Duration
}

// Options configure an optimization run. The zero value asks the default
// strategy ("milp") for a C_out-optimal plan with no time limit.
type Options struct {
	// Strategy names the registered optimizer to run (default "milp").
	// Strategies() lists the available names. The "auto" strategy races
	// a portfolio of strategies concurrently, feeding every incumbent
	// into the MILP branch and bound as a live MIP start.
	Strategy string

	// Portfolio names the members the "auto" strategy races (default
	// DefaultPortfolio()). Setting it with any other strategy, listing a
	// member twice, nesting "auto" inside itself, or supplying an
	// explicitly empty list is rejected by Validate with
	// ErrInvalidOptions.
	Portfolio []string

	// Metric selects the objective (default Cout).
	Metric Metric
	// Op is the operator priced when Metric is OperatorCost and
	// operator selection is off (default HashJoin).
	Op Operator

	// Budget bundles the run's resource limits (time, gap tolerance,
	// node cap, threads) as one splittable value. See Budget.
	Budget Budget

	// Precision selects the MILP threshold spacing (default
	// PrecisionMedium; MILP strategy only).
	Precision Precision
	// CardCap bounds the representable cardinality range (default 1e12;
	// MILP strategy only).
	CardCap float64

	// ChooseOperators lets the optimizer pick a join operator per join
	// (MILP Section 5.3 extension and the DP baselines).
	ChooseOperators bool
	// InterestingOrders enables the Section 5.4 extension: tuple-order
	// properties and a pre-sorted sort-merge variant. Requires
	// ChooseOperators (MILP strategy only).
	InterestingOrders bool

	// PartitionCap bounds partition sizes in the "hybrid" decomposition
	// strategy: the join graph is cut into connected partitions of at
	// most this many tables, each solved to its left-deep optimum by the
	// subset DP of dp-leftdeep before stitching (default 15; hybrid
	// strategy only). Values below 2 other than the 0 default are rejected
	// by Validate; values above 24, the largest query that DP takes, are
	// taken as 24.
	PartitionCap int
	// SeamBudgetFrac is the fraction of the hybrid strategy's time
	// budget reserved for stitching partition plans and re-optimizing
	// seam regions (default 0.25; must be in [0, 1); hybrid strategy
	// only).
	SeamBudgetFrac float64

	// Seed drives the randomized heuristics (deterministic per seed).
	Seed int64

	// InitialPlan optionally seeds the MILP search with a known-good plan
	// as its first incumbent (a "MIP start"), instead of the default
	// greedy join order. The cache layer uses this to warm-start solves
	// of queries structurally similar to already-solved ones. The plan is
	// feasibility-checked against the encoding; an unusable plan falls
	// back to the greedy start (MILP strategy only, never an error).
	InitialPlan *Plan

	// OnEvent, when non-nil, receives the solver's structured event
	// stream (MILP strategy only). Callbacks are serialised — they never
	// run concurrently, sequence numbers increase by one, incumbents
	// never worsen, and bounds never regress within a run — and must be
	// fast: they execute on solver goroutines, some while search locks
	// are held.
	OnEvent func(Event)

	// OnPlan, when non-nil, observes every strict plan improvement a
	// strategy reports, with the plan itself — the uniform anytime
	// surface across strategies. Heuristics report every improvement
	// live; exact strategies report their final plan; the MILP reports
	// its decoded plan on completion (mid-solve MILP incumbents appear
	// on the event stream only). Callbacks are serialised, across the
	// members of an "auto" race too. It is the caller's observer only:
	// the race's members reach each other through the incumbent bus.
	OnPlan func(PlanUpdate)

	// bus, when non-nil, is the incumbent bus of the "auto" race this
	// run is a member of (set by the orchestrator, never by callers):
	// every plan improvement is published to it under the strategy's
	// name, the MILP takes peers' plans from it as live MIP starts at
	// branch-and-bound node boundaries, and dp-bushy prunes against its
	// best cost.
	bus *portfolio.Bus
}

// Validate checks the caller-supplied option values. Every public entry
// point validates before optimizing, so no panic is reachable from bad
// API input.
func (o Options) Validate() error {
	if err := o.Budget.validate(); err != nil {
		return err
	}
	if _, err := o.Precision.Ratio(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if o.Metric != Cout && o.Metric != OperatorCost {
		return fmt.Errorf("%w: unknown metric %d", ErrInvalidOptions, int(o.Metric))
	}
	switch o.Op {
	case HashJoin, SortMergeJoin, BlockNestedLoopJoin:
	default:
		return fmt.Errorf("%w: unknown operator %d", ErrInvalidOptions, int(o.Op))
	}
	if o.CardCap != 0 && o.CardCap < 1 {
		return fmt.Errorf("%w: cardinality cap %g must be at least 1", ErrInvalidOptions, o.CardCap)
	}
	if o.PartitionCap < 0 || o.PartitionCap == 1 {
		return fmt.Errorf("%w: partition cap %d must be 0 (default) or at least 2", ErrInvalidOptions, o.PartitionCap)
	}
	if o.SeamBudgetFrac < 0 || o.SeamBudgetFrac >= 1 {
		return fmt.Errorf("%w: seam budget fraction %g must be in [0, 1)", ErrInvalidOptions, o.SeamBudgetFrac)
	}
	if o.InterestingOrders && !o.ChooseOperators {
		return fmt.Errorf("%w: InterestingOrders requires ChooseOperators", ErrInvalidOptions)
	}
	if o.Portfolio != nil {
		name := o.Strategy
		if name == "" {
			name = DefaultStrategy
		}
		if name != "auto" {
			return fmt.Errorf("%w: Portfolio requires strategy %q, got %q", ErrInvalidOptions, "auto", name)
		}
		if len(o.Portfolio) == 0 {
			return fmt.Errorf("%w: empty portfolio member list", ErrInvalidOptions)
		}
		seen := make(map[string]bool, len(o.Portfolio))
		for _, m := range o.Portfolio {
			if m == "" || m == "auto" {
				return fmt.Errorf("%w: portfolio member %q (the portfolio cannot nest itself)", ErrInvalidOptions, m)
			}
			if seen[m] {
				return fmt.Errorf("%w: duplicate portfolio member %q", ErrInvalidOptions, m)
			}
			seen[m] = true
			if _, err := Lookup(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// CostModel returns the options the textual cost-model names select, as the
// joinopt flags and the server's request fields spell them: precision
// "high", "medium" or "low"; metric "cout", "hash", "smj", "bnl" or
// "choose" (operator selection over hash, sort-merge and block nested
// loop). "" means "medium" and "hash". The block-nested-loop models cap
// cardinalities at 1e8. An unknown name is an error wrapping
// ErrInvalidOptions.
func CostModel(precision, metric string) (Options, error) {
	var o Options
	switch precision {
	case "", "medium":
		o.Precision = PrecisionMedium
	case "high":
		o.Precision = PrecisionHigh
	case "low":
		o.Precision = PrecisionLow
	default:
		return o, fmt.Errorf("%w: unknown precision %q", ErrInvalidOptions, precision)
	}
	o.Metric, o.Op = OperatorCost, HashJoin
	switch metric {
	case "", "hash":
	case "cout":
		o.Metric = Cout
	case "smj":
		o.Op = SortMergeJoin
	case "bnl":
		o.Op, o.CardCap = BlockNestedLoopJoin, 1e8
	case "choose":
		o.ChooseOperators, o.CardCap = true, 1e8
	default:
		return o, fmt.Errorf("%w: unknown metric %q", ErrInvalidOptions, metric)
	}
	return o, nil
}

// spec is the exact-costing specification the options describe.
func (o Options) spec() cost.Spec {
	return cost.Spec{Metric: o.Metric, Op: o.Op, Params: cost.Params{}.WithDefaults()}
}

// Status classifies the outcome of a successful optimization (err == nil).
type Status int

const (
	// StatusOptimal means the plan is proven optimal for the strategy's
	// search space within the configured tolerances.
	StatusOptimal Status = iota
	// StatusFeasible means the plan carries no optimality proof: it
	// came from a heuristic, or the search stopped early on a limit.
	StatusFeasible
	// StatusTimeLimit means the run's deadline (Budget.TimeLimit or the
	// context's, whichever came first) passed; Plan is the best incumbent
	// found.
	StatusTimeLimit
	// StatusCanceled means the context was canceled mid-solve; Plan is
	// the best incumbent found before cancellation.
	StatusCanceled
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusTimeLimit:
		return "time limit"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of an optimization run. When the strategy returned
// without error, Tree is non-nil; Plan is additionally non-nil whenever the
// tree is left-deep (always, except for a genuinely bushy optimum of
// dp-bushy).
type Result struct {
	// Strategy is the name of the optimizer that produced the result.
	Strategy string
	// Status classifies the outcome.
	Status Status
	// Plan is the left-deep plan found (nil for bushy trees).
	Plan *Plan
	// Tree is the join tree found (always set on success).
	Tree *Tree
	// Cost is the plan's exact cost under the options' cost model.
	Cost float64
	// Bound is the proven lower bound on the optimal objective, in the
	// strategy's objective space: the MILP strategy proves bounds on
	// its approximated cost, exact DP proves Bound == its objective,
	// and heuristics certify nothing (-Inf).
	Bound float64
	// Gap is the relative gap between the strategy objective and Bound
	// (+Inf when no bound is available).
	Gap float64
	// Objective is the strategy's internal objective value for the
	// returned plan (the MILP's approximated cost; elsewhere == Cost).
	// Compare against Bound for the quality guarantee.
	Objective float64
	// Nodes counts branch-and-bound nodes (MILP strategy only).
	Nodes int
	// Elapsed is the optimization wall-clock time.
	Elapsed time.Duration
	// Stats aggregates per-phase solver effort (MILP strategy only; nil
	// for the baselines and heuristics, which have no phases to report).
	Stats *Stats
	// MIPStart reports which initial incumbent seeded the MILP search:
	// "plan" (Options.InitialPlan was accepted), "greedy" (the default
	// heuristic start), or "" (cold start, or a non-MILP strategy).
	MIPStart string
	// Winner names the portfolio member whose plan this result carries
	// (Strategy "auto" only; empty for single-strategy runs). The other
	// members' incumbents still shaped the result through live
	// injection.
	Winner string
}

// Optimize runs the strategy selected by opts.Strategy on the query. It is
// the library's single public entry point; see the package documentation
// for the context and error semantics.
func Optimize(ctx context.Context, q *Query, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return nil, fmt.Errorf("%w: nil query", ErrInvalidQuery)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o, err := Lookup(opts.Strategy)
	if err != nil {
		return nil, err
	}
	return o.Optimize(ctx, q, opts)
}
