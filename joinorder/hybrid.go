package joinorder

import (
	"context"
	"math"
	"time"

	"milpjoin/internal/decomp"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
)

func init() {
	mustRegister("hybrid", "graph decomposition for 100+ table queries: partition, solve each piece by left-deep DP, stitch with an exact quotient DP, seam re-optimization", optimizeHybrid)
}

// optimizeHybrid runs the decomposition pipeline of internal/decomp: the
// join graph is cut along its weakest edges into partitions of at most
// Options.PartitionCap tables, each partition is solved to its left-deep
// optimum by the subset DP of dp-leftdeep (the greedy order once the solve
// phase is out of time), the partition plans are stitched into one global
// left-deep plan, and the reserved Options.SeamBudgetFrac of the budget
// re-optimizes windows around the cut seams. Every improving global plan
// is reported like any other member's: to the race's incumbent bus under
// strategy "auto", to Options.OnPlan and to Options.OnEvent.
//
// The hybrid prices Options.Op uniformly (ChooseOperators is ignored), reads
// no MILP option, and always returns a feasible plan with a finite,
// exact-space-valid lower bound — typically loose (the cherry bound) unless
// the whole query is one partition of at most 13 tables, whose bound is the
// bushy optimum.
func optimizeHybrid(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	a := newAnytime("hybrid", opts)
	dopts := decomp.Options{
		Spec:         opts.spec(),
		PartitionCap: opts.PartitionCap,
		SeamFrac:     opts.SeamBudgetFrac,
	}
	if a != nil {
		dopts.OnImprovement = func(pl *plan.Plan, c float64) {
			a.improved(pl, c, time.Since(start), math.Inf(-1))
		}
	}
	res, err := decomp.Optimize(ctx, q, dopts)
	if err != nil {
		return nil, mapBaselineErr(ctx, err)
	}
	out := &Result{
		Strategy:  "hybrid",
		Plan:      res.Plan,
		Tree:      res.Plan.LeftDeep(),
		Cost:      res.Cost,
		Objective: res.Cost,
		Bound:     res.Bound,
		Gap:       obs.RelGap(res.Cost, res.Bound),
		Elapsed:   time.Since(start),
	}
	switch {
	case res.Optimal:
		out.Status = StatusOptimal
	case res.TimedOut:
		out.Status = StatusTimeLimit
	default:
		out.Status = StatusFeasible
	}
	out.Status, _ = ended(ctx, out.Status)
	return out, nil
}
