package joinorder

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/core"
	"milpjoin/internal/dp"
	"milpjoin/internal/heuristic"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
	"milpjoin/internal/portfolio"
)

// The built-in strategies, all behind the same interface — the
// prerequisite for per-query strategy switching (hybrid MILP/non-MILP
// optimization à la Schönberger & Trummer). "auto" and "hybrid" register
// themselves next to their implementations.
func init() {
	mustRegister("milp", "anytime MILP encoding with proven optimality bounds (the paper's approach)", optimizeMILP)
	mustRegister("dp-leftdeep", "exact left-deep dynamic programming (Selinger-style, cross products allowed)", optimizeDPLeftDeep)
	mustRegister("dp-bushy", "exact bushy-tree dynamic programming (O(3^n) layered subset enumeration, live cutoff pruning under auto)", optimizeBushy)
	mustRegister("ikkbz", "polynomial IKKBZ for acyclic join graphs under C_out", optimizeIKKBZ)
	mustRegister("greedy", "greedy smallest-intermediate-result ordering", optimizeGreedy)
	mustRegister("gradient", "stochastic gradient descent on a continuous join-order relaxation (SPSA)", optimizeGradient)
}

// anytime is the uniform improvement surface the non-MILP strategies
// report through: every strict plan improvement goes to the race's bus
// (under "auto"), to Options.OnPlan with the plan itself, and to
// Options.OnEvent as a KindIncumbent event (the MILP strategy emits its
// events from inside the solver instead and reports the decoded plan once,
// on completion). A nil *anytime drops everything.
type anytime struct {
	name    string
	bus     *portfolio.Bus
	onPlan  func(PlanUpdate)
	emitter *obs.Emitter
}

func newAnytime(name string, opts Options) *anytime {
	if opts.bus == nil && opts.OnPlan == nil && opts.OnEvent == nil {
		return nil
	}
	a := &anytime{name: name, bus: opts.bus, onPlan: opts.OnPlan}
	if onEvent := opts.OnEvent; onEvent != nil {
		a.emitter = obs.NewEmitter(time.Now(), func(ev obs.Event) { onEvent(ev) })
	}
	return a
}

// improved reports one strict improvement: the new best plan, its exact
// cost, and the proven lower bound (-Inf for heuristics, == cost for exact
// strategies reporting their final plan).
func (a *anytime) improved(p *Plan, c float64, elapsed time.Duration, bound float64) {
	if a == nil {
		return
	}
	if p != nil && a.bus != nil {
		a.bus.Publish(a.name, p, c)
	}
	if p != nil && a.onPlan != nil {
		a.onPlan(PlanUpdate{Strategy: a.name, Plan: p, Cost: c, Elapsed: elapsed})
	}
	a.emitter.Emit(obs.Event{
		Kind:         obs.KindIncumbent,
		Worker:       -1,
		Strategy:     a.name,
		Incumbent:    c,
		Bound:        bound,
		Gap:          obs.RelGap(c, bound),
		HasIncumbent: true,
		Elapsed:      elapsed,
	})
}

// ReadsInitialPlan reports whether a run under opts reads
// Options.InitialPlan: only the MILP strategy does, alone or as a member of
// an "auto" portfolio. The plan cache keeps warm-start donors for such runs
// only.
func ReadsInitialPlan(opts Options) bool {
	name := opts.Strategy
	if name == "" {
		name = DefaultStrategy
	}
	switch name {
	case "milp":
		return true
	case "auto":
		return slices.Contains(portfolioMembers(opts), "milp")
	}
	return false
}

// optimizeMILP runs the paper's pipeline: encode the query as a MILP,
// solve with branch and bound, decode the incumbent. It is the only
// strategy with true anytime behaviour: cancellation and time limits
// return the best incumbent plus a proven bound.
func optimizeMILP(ctx context.Context, q *Query, opts Options) (*Result, error) {
	var incumbents func() *plan.Plan
	if opts.bus != nil {
		incumbents = opts.bus.Take
	}
	res, err := core.Optimize(ctx, q, core.Options{
		Precision:         opts.Precision,
		CardCap:           opts.CardCap,
		Metric:            opts.Metric,
		Op:                opts.Op,
		ChooseOperators:   opts.ChooseOperators,
		InterestingOrders: opts.InterestingOrders,
		InitialPlan:       opts.InitialPlan,
		Incumbents:        incumbents,
		GapTol:            opts.Budget.GapTol,
		Threads:           opts.Budget.Threads,
		MaxNodes:          opts.Budget.MaxNodes,
		OnEvent:           opts.OnEvent,
	})
	if err != nil {
		if errors.Is(err, core.ErrInvalidOptions) {
			return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
		return nil, err
	}
	out := &Result{
		Strategy: "milp",
		Bound:    res.Bound,
		Gap:      res.Gap,
		Nodes:    res.Nodes,
		Elapsed:  res.Elapsed,
		Stats:    &res.Stats,
		MIPStart: res.MIPStart,
	}
	if res.Status == bb.StatusInfeasible {
		return nil, fmt.Errorf("%w: the MILP proved no plan fits the encoding (try a higher CardCap)", ErrInfeasible)
	}
	if res.Plan == nil {
		if _, err := ended(ctx, StatusFeasible); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: solver stopped with status %v", ErrNoPlan, res.Status)
	}
	out.Plan = res.Plan
	out.Tree = res.Plan.LeftDeep()
	out.Cost = res.ExactCost
	out.Objective = res.Solution.Obj
	if opts.OnPlan != nil {
		opts.OnPlan(PlanUpdate{Strategy: "milp", Plan: res.Plan, Cost: res.ExactCost, Elapsed: res.Elapsed})
	}
	// A node limit or numerical no-progress leaves a plan without proof.
	out.Status = StatusFeasible
	if res.Status == bb.StatusOptimal {
		out.Status = StatusOptimal
	}
	out.Status, _ = ended(ctx, out.Status)
	return out, nil
}

// optimizeDPLeftDeep is the exact Selinger-style baseline. DP is not
// anytime: it produces nothing until it finishes, so cancellation returns
// ErrCanceled without a plan.
func optimizeDPLeftDeep(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	pl, c, err := dp.OptimizeLeftDeep(ctx, q, opts.spec(), dp.Options{
		ChooseOperators: opts.ChooseOperators,
	})
	if err != nil {
		return nil, mapBaselineErr(ctx, err)
	}
	elapsed := time.Since(start)
	newAnytime("dp-leftdeep", opts).improved(pl, c, elapsed, c)
	return &Result{
		Strategy:  "dp-leftdeep",
		Status:    StatusOptimal,
		Plan:      pl,
		Tree:      pl.LeftDeep(),
		Cost:      c,
		Objective: c,
		Bound:     c,
		Elapsed:   elapsed,
	}, nil
}

// optimizeBushy is the exact bushy-tree search: layered subset enumeration
// with an optional live cutoff (the portfolio's incumbent bus) pruning
// dominated subsets. The Result carries a left-deep Plan as well whenever
// the optimal tree happens to be linear.
func optimizeBushy(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	var bopts dp.BushyOptions
	if opts.bus != nil {
		bopts.Cutoff = opts.bus.BestCost
	}
	tree, c, err := dp.OptimizeBushy(ctx, q, opts.spec(), bopts)
	if err != nil {
		return nil, mapBaselineErr(ctx, err)
	}
	elapsed := time.Since(start)
	pl := tree.LeftDeepPlan(opts.Metric)
	newAnytime("dp-bushy", opts).improved(pl, c, elapsed, c)
	return &Result{
		Strategy:  "dp-bushy",
		Status:    StatusOptimal,
		Plan:      pl,
		Tree:      tree,
		Cost:      c,
		Objective: c,
		Bound:     c,
		Elapsed:   elapsed,
	}, nil
}

// optimizeIKKBZ runs the polynomial IKKBZ algorithm. Its optimality
// guarantee (left-deep, no cross products, C_out, acyclic graphs) is
// narrower than the other strategies' search spaces, so the result is
// reported as feasible without a bound.
func optimizeIKKBZ(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	pl, cout, err := dp.IKKBZ(ctx, q)
	if err != nil {
		return nil, mapBaselineErr(ctx, err)
	}
	c := cout
	if opts.Metric != Cout {
		if c, err = plan.Cost(q, pl, opts.spec()); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	newAnytime("ikkbz", opts).improved(pl, c, elapsed, math.Inf(-1))
	return &Result{
		Strategy:  "ikkbz",
		Status:    StatusFeasible,
		Plan:      pl,
		Tree:      pl.LeftDeep(),
		Cost:      c,
		Objective: c,
		Bound:     math.Inf(-1),
		Gap:       math.Inf(1),
		Elapsed:   elapsed,
	}, nil
}

// optimizeGreedy picks the smallest intermediate result at every step —
// the cheapest strategy, and the MIP start the MILP strategy seeds itself
// with.
func optimizeGreedy(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	if _, err := ended(ctx, StatusFeasible); err != nil {
		return nil, err
	}
	pl, c, err := dp.GreedyLeftDeep(q, opts.spec())
	if err != nil {
		return nil, mapBaselineErr(ctx, err)
	}
	elapsed := time.Since(start)
	newAnytime("greedy", opts).improved(pl, c, elapsed, math.Inf(-1))
	return &Result{
		Strategy:  "greedy",
		Status:    StatusFeasible,
		Plan:      pl,
		Tree:      pl.LeftDeep(),
		Cost:      c,
		Objective: c,
		Bound:     math.Inf(-1),
		Gap:       math.Inf(1),
		Elapsed:   elapsed,
	}, nil
}

// optimizeGradient runs the randomized anytime gradient-descent search,
// routing every strict improvement to the uniform anytime surface. A search
// the context ends returns its best plan with the status ended gives, a
// completed one StatusFeasible (the heuristic never certifies optimality).
func optimizeGradient(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	h := heuristic.Options{Seed: opts.Seed}
	if a := newAnytime("gradient", opts); a != nil {
		h.OnImprovement = func(p *plan.Plan, c float64, elapsed time.Duration) {
			a.improved(p, c, elapsed, math.Inf(-1))
		}
	}
	pl, c, err := heuristic.GradientDescent(ctx, q, opts.spec(), h)
	if err != nil {
		if _, cerr := ended(ctx, StatusFeasible); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: %v", ErrNoPlan, err)
	}
	status, _ := ended(ctx, StatusFeasible)
	return &Result{
		Strategy:  "gradient",
		Status:    status,
		Plan:      pl,
		Tree:      pl.LeftDeep(),
		Cost:      c,
		Objective: c,
		Bound:     math.Inf(-1),
		Gap:       math.Inf(1),
		Elapsed:   time.Since(start),
	}, nil
}

// mapBaselineErr translates baseline-package failures into the public
// typed errors; a run the context ended gets ended's error.
func mapBaselineErr(ctx context.Context, err error) error {
	switch {
	case errors.Is(err, dp.ErrNoneBetter):
		// Preserve the chain: the portfolio orchestrator reads this as a
		// proof that its racing incumbent is optimal, not as a failure.
		return fmt.Errorf("%w: %w", ErrNoPlan, err)
	case errors.Is(err, dp.ErrTooLarge), errors.Is(err, dp.ErrNotAcyclic):
		return fmt.Errorf("%w: %v", ErrNoPlan, err)
	}
	if _, cerr := ended(ctx, StatusFeasible); cerr != nil {
		return cerr
	}
	return err
}
