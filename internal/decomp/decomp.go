// Package decomp implements the hybrid graph-decomposition pipeline for
// queries too large for one monolithic MILP or exact DP: partition the
// join graph along its weakest edges, solve each partition independently
// under a divided time budget (exact DP for small partitions, the MILP
// for larger ones), stitch the partition plans into one global left-deep
// plan with an exact DP over the partition quotient graph, and spend the
// leftover budget re-optimizing seam windows around the cuts. The result
// is always a feasible plan plus a finite, exact-space-valid lower bound
// (the cherry bound, or the bushy optimum when one exact solve covered
// the whole query).
package decomp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// Default knobs; zero values in Options resolve to these.
const (
	DefaultPartitionCap = 15
	DefaultSeamFrac     = 0.25
	DefaultDPCap        = 13

	// defaultMILPBudget is the per-partition MILP time limit when the
	// caller set no global deadline; minMILPBudget is the floor under a
	// tight deadline so every partition still gets a real solve attempt.
	defaultMILPBudget = 3 * time.Second
	minMILPBudget     = 50 * time.Millisecond
)

// Options configure one hybrid optimization run. The hybrid pipeline
// prices Spec.Op uniformly (operator annotations are not chosen per
// join); callers wanting per-join operator choice should post-process.
type Options struct {
	// Spec is the exact costing specification (metric, operator, params).
	Spec cost.Spec
	// PartitionCap bounds partition size (0: DefaultPartitionCap; min 2).
	PartitionCap int
	// SeamFrac is the fraction of the remaining budget reserved for seam
	// re-optimization after partition solves and stitching (0: default).
	SeamFrac float64
	// DPCap is the largest partition solved by exact DP instead of the
	// MILP (0: DefaultDPCap).
	DPCap int
	// Deadline bounds the whole run (zero: per-partition defaults only).
	Deadline time.Time
	// MILP templates the per-partition MILP options (precision,
	// cardinality cap, gap tolerance, threads). Metric, operator, cost
	// params, time limit, plan injection, and callbacks are overridden per
	// partition.
	MILP core.Options
	// OnImprovement receives every new best global plan with its exact
	// cost: the first stitched plan, then each improving seam window.
	OnImprovement func(*plan.Plan, float64)
}

func (o Options) withDefaults() Options {
	if o.PartitionCap <= 0 {
		o.PartitionCap = DefaultPartitionCap
	}
	if o.PartitionCap < 2 {
		o.PartitionCap = 2
	}
	if o.SeamFrac <= 0 || o.SeamFrac >= 1 {
		o.SeamFrac = DefaultSeamFrac
	}
	if o.DPCap <= 0 {
		o.DPCap = DefaultDPCap
	}
	if o.DPCap > 20 {
		o.DPCap = 20 // dp.OptimizeConv's hard ceiling
	}
	return o
}

// Result is the outcome of a hybrid run.
type Result struct {
	// Plan is the stitched (and seam-polished) global left-deep plan.
	Plan *plan.Plan
	// Cost is Plan's exact cost under the Spec.
	Cost float64
	// Bound is a valid lower bound on every plan (bushy included): the
	// exact optimum when a single exact solve covered the query, else
	// the cherry bound.
	Bound float64
	// PartitionSizes lists the decomposition (len 1: no decomposition).
	PartitionSizes []int
	// SeamImproved reports whether seam re-optimization beat the stitch.
	SeamImproved bool
	// Optimal reports Cost == Bound (only possible via the exact path).
	Optimal bool
	// TimedOut reports the deadline or context cut the run short.
	TimedOut bool
}

// Optimize runs the hybrid decomposition pipeline. It always returns a
// feasible plan for a valid query: every stage (partition solve, stitch,
// seam) has a greedy fallback under deadline pressure.
func Optimize(ctx context.Context, q *qopt.Query, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	parts := partitionGraph(q, opts.PartitionCap)
	// The stitcher tracks partitions in a 64-bit mask: pathologically
	// small caps get their smallest partitions merged (cap overridden).
	for len(parts) > maxPartitions {
		sort.Slice(parts, func(i, j int) bool { return len(parts[i].Tables) < len(parts[j].Tables) })
		merged := append(parts[0].Tables, parts[1].Tables...)
		sort.Ints(merged)
		parts = append(parts[2:], Partition{Tables: merged})
	}
	sizes := make([]int, len(parts))
	for i, p := range parts {
		sizes[i] = len(p.Tables)
	}

	if len(parts) == 1 {
		return optimizeWhole(ctx, q, opts, sizes)
	}

	res := &Result{PartitionSizes: sizes}

	// Budget split: the seam fraction of whatever remains is reserved
	// for the polish loop; partition solves share the rest weighted by
	// expected effort (exact DP 1, MILP 3), recomputed as solves finish.
	now := time.Now()
	var solveDeadline time.Time
	hasDeadline := !opts.Deadline.IsZero()
	if hasDeadline {
		remaining := time.Until(opts.Deadline)
		solveDeadline = now.Add(time.Duration((1 - opts.SeamFrac) * float64(remaining)))
	}
	weight := func(p Partition) float64 {
		if len(p.Tables) <= opts.DPCap {
			return 1
		}
		return 3
	}
	weightLeft := 0.0
	for _, p := range parts {
		weightLeft += weight(p)
	}

	orders := make([][]int, len(parts))
	for i, p := range parts {
		var partDeadline time.Time
		if hasDeadline {
			left := time.Until(solveDeadline)
			if left < 0 {
				left = 0
			}
			share := time.Duration(float64(left) * weight(p) / weightLeft)
			partDeadline = time.Now().Add(share)
		}
		weightLeft -= weight(p)
		if ctx.Err() != nil || (hasDeadline && time.Now().After(solveDeadline)) {
			// Out of solve budget: greedy for everything left.
			res.TimedOut = true
			orders[i] = greedyOrder(q, p, opts.Spec)
			continue
		}
		orders[i] = solvePartition(ctx, q, p, opts, partDeadline)
	}

	st := newStitcher(q, opts.Spec, orders)
	var partOrder []int
	if len(parts) <= quotientDPMax {
		var ok bool
		partOrder, ok = st.orderDP(solveDeadline)
		if !ok {
			partOrder = st.orderGreedy()
		}
	} else {
		partOrder = st.orderGreedy()
	}
	order := st.concat(partOrder)

	bestPlan := &plan.Plan{Order: append([]int(nil), order...)}
	bestCost, err := plan.Cost(q, bestPlan, opts.Spec)
	if err != nil {
		return nil, fmt.Errorf("decomp: costing stitched plan: %w", err)
	}
	if opts.OnImprovement != nil {
		opts.OnImprovement(clonePlan(bestPlan), bestCost)
	}

	// Seam polish with whatever budget is left. Window improvements can
	// sit below the exact coster's floating-point resolution on huge
	// C_out values, so the published (and returned) trajectory is gated
	// on a strict decrease of the recomputed exact cost.
	if ctx.Err() == nil && (!hasDeadline || time.Now().Before(opts.Deadline)) {
		boundaries := make([]int, 0, len(partOrder)-1)
		at := 0
		for _, p := range partOrder[:len(partOrder)-1] {
			at += st.sizes[p]
			boundaries = append(boundaries, at)
		}
		order, _ = seamOptimize(q, opts.Spec, order, boundaries, opts.Deadline, func(cur []int) {
			p2 := &plan.Plan{Order: append([]int(nil), cur...)}
			if c2, cerr := plan.Cost(q, p2, opts.Spec); cerr == nil && c2 < bestCost {
				bestPlan, bestCost = p2, c2
				res.SeamImproved = true
				if opts.OnImprovement != nil {
					opts.OnImprovement(clonePlan(p2), c2)
				}
			}
		})
		finalPlan := &plan.Plan{Order: order}
		if fc, cerr := plan.Cost(q, finalPlan, opts.Spec); cerr == nil && fc < bestCost {
			bestPlan, bestCost = finalPlan, fc
			res.SeamImproved = true
			if opts.OnImprovement != nil {
				opts.OnImprovement(clonePlan(finalPlan), fc)
			}
		}
	}
	if hasDeadline && time.Now().After(opts.Deadline) {
		res.TimedOut = true
	}

	res.Plan = bestPlan
	res.Cost = bestCost
	res.Bound = lowerBound(q, opts.Spec, false)
	res.Optimal = res.Cost <= res.Bound*(1+1e-9) // only degenerate cases
	return res, nil
}

// optimizeWhole handles the single-partition case: the query fits one
// exact or MILP solve, so no stitching is needed and the bound can be
// tight (the bushy optimum) on the exact path.
func optimizeWhole(ctx context.Context, q *qopt.Query, opts Options, sizes []int) (*Result, error) {
	n := q.NumTables()
	res := &Result{PartitionSizes: sizes}
	if n <= opts.DPCap {
		tree, c, err := dp.OptimizeConv(ctx, q, opts.Spec, dp.ConvOptions{
			Options: dp.Options{Deadline: opts.Deadline},
		})
		if err == nil {
			// The DP objective is a valid bound over every plan (it
			// underprices only by the non-negative expensive-predicate
			// terms), but the reported cost is always plan.Cost.
			res.Bound = c
			pl := tree.LeftDeepPlan(opts.Spec.Metric)
			if pl == nil {
				if ldPl, _, lerr := dp.OptimizeLeftDeep(ctx, q, opts.Spec, dp.Options{Deadline: opts.Deadline}); lerr == nil {
					pl = ldPl
				}
			}
			if pl != nil {
				exact, cerr := plan.Cost(q, pl, opts.Spec)
				if cerr != nil {
					return nil, fmt.Errorf("decomp: costing exact plan: %w", cerr)
				}
				res.Plan, res.Cost = pl, exact
				res.Optimal = exact <= c*(1+1e-9)
				if opts.OnImprovement != nil {
					opts.OnImprovement(clonePlan(res.Plan), res.Cost)
				}
				return res, nil
			}
		}
		// Exact path timed out or produced no left-deep plan: greedy.
		res.TimedOut = true
		return finishGreedy(q, opts, res)
	}

	// MILP over the whole (small enough to encode) query.
	mopts := partitionMILPConfig(opts)
	if !opts.Deadline.IsZero() {
		if left := time.Until(opts.Deadline); left > 0 {
			mopts.TimeLimit = left
		} else {
			res.TimedOut = true
			return finishGreedy(q, opts, res)
		}
	}
	mres, err := core.Optimize(ctx, q, mopts)
	if err == nil && mres.Plan != nil {
		res.Plan = mres.Plan
		if res.Cost, err = plan.Cost(q, mres.Plan, opts.Spec); err == nil {
			res.Bound = lowerBound(q, opts.Spec, false)
			if opts.OnImprovement != nil {
				opts.OnImprovement(clonePlan(res.Plan), res.Cost)
			}
			return res, nil
		}
	}
	res.TimedOut = ctx.Err() != nil
	return finishGreedy(q, opts, res)
}

// solvePartition produces a join order (global table ids) for one
// partition: exact DP when it fits, the MILP with its budget share
// otherwise, greedy whenever either fails.
func solvePartition(ctx context.Context, q *qopt.Query, p Partition, opts Options, deadline time.Time) []int {
	if len(p.Tables) == 1 {
		return []int{p.Tables[0]}
	}
	sub, _ := subQuery(q, p)
	var localPlan *plan.Plan
	if len(p.Tables) <= opts.DPCap {
		tree, _, err := dp.OptimizeConv(ctx, sub, opts.Spec, dp.ConvOptions{
			Options: dp.Options{Deadline: deadline},
		})
		if err == nil {
			localPlan = tree.LeftDeepPlan(opts.Spec.Metric)
		}
		if localPlan == nil {
			if pl, _, lerr := dp.OptimizeLeftDeep(ctx, sub, opts.Spec, dp.Options{Deadline: deadline}); lerr == nil {
				localPlan = pl
			}
		}
	} else {
		mopts := partitionMILPConfig(opts)
		if deadline.IsZero() {
			mopts.TimeLimit = defaultMILPBudget
		} else {
			mopts.TimeLimit = time.Until(deadline)
			if mopts.TimeLimit < minMILPBudget {
				mopts.TimeLimit = minMILPBudget
			}
		}
		if mres, err := core.Optimize(ctx, sub, mopts); err == nil && mres.Plan != nil {
			localPlan = mres.Plan
		}
	}
	if localPlan == nil {
		if pl, _, err := dp.GreedyLeftDeep(sub, opts.Spec); err == nil {
			localPlan = pl
		}
	}
	if localPlan == nil { // cannot happen for a valid sub-query; stay safe
		return append([]int(nil), p.Tables...)
	}
	out := make([]int, len(localPlan.Order))
	for j, li := range localPlan.Order {
		out[j] = p.Tables[li]
	}
	return out
}

// partitionMILPConfig instantiates the per-partition MILP options from the
// template: uniform operator pricing, no plan injection, no callbacks.
func partitionMILPConfig(opts Options) core.Options {
	mopts := opts.MILP
	mopts.Metric = opts.Spec.Metric
	mopts.Op = opts.Spec.Op
	mopts.CostParams = opts.Spec.Params
	mopts.ChooseOperators = false
	mopts.InitialPlan = nil
	mopts.Incumbents = nil
	mopts.OnEvent = nil
	return mopts
}

// greedyOrder is the zero-budget fallback for one partition.
func greedyOrder(q *qopt.Query, p Partition, spec cost.Spec) []int {
	if len(p.Tables) == 1 {
		return []int{p.Tables[0]}
	}
	sub, _ := subQuery(q, p)
	pl, _, err := dp.GreedyLeftDeep(sub, spec)
	if err != nil {
		return append([]int(nil), p.Tables...)
	}
	out := make([]int, len(pl.Order))
	for j, li := range pl.Order {
		out[j] = p.Tables[li]
	}
	return out
}

// finishGreedy fills Result with the greedy plan — the last-resort path
// that keeps "always a feasible plan" true under any budget.
func finishGreedy(q *qopt.Query, opts Options, res *Result) (*Result, error) {
	pl, _, err := dp.GreedyLeftDeep(q, opts.Spec)
	if err != nil {
		return nil, fmt.Errorf("decomp: greedy fallback: %w", err)
	}
	c, err := plan.Cost(q, pl, opts.Spec)
	if err != nil {
		return nil, fmt.Errorf("decomp: costing greedy fallback: %w", err)
	}
	res.Plan, res.Cost = pl, c
	if res.Bound == 0 {
		res.Bound = lowerBound(q, opts.Spec, false)
	}
	if opts.OnImprovement != nil {
		opts.OnImprovement(clonePlan(pl), c)
	}
	return res, nil
}

func clonePlan(p *plan.Plan) *plan.Plan {
	cp := &plan.Plan{Order: append([]int(nil), p.Order...)}
	if p.Operators != nil {
		cp.Operators = append([]cost.Operator(nil), p.Operators...)
	}
	return cp
}
