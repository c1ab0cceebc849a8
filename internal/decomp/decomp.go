// Package decomp implements the hybrid graph-decomposition pipeline for
// queries too large for one exact DP: partition the join graph along its
// weakest edges, solve each partition's sub-query to its left-deep optimum
// with dp.OptimizeLeftDeep (the greedy order when the solve phase runs
// out), stitch the partition plans into one global left-deep plan with an
// exact DP over the partition quotient graph, and spend the leftover
// budget re-optimizing seam windows around the cuts. The result is always
// a feasible plan plus a finite, exact-space-valid lower bound (the cherry
// bound, or the bushy optimum when the whole query is one small
// partition).
package decomp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// Default knobs; zero values in Options resolve to these.
const (
	DefaultPartitionCap = 15
	DefaultSeamFrac     = 0.25
)

// boundDPMax is the largest whole query whose reported bound is the bushy
// optimum (dp.OptimizeBushy, Θ(3^n)) rather than the cherry bound.
const boundDPMax = 13

// Options configure one hybrid optimization run. The hybrid pipeline
// prices Spec.Op uniformly (operator annotations are not chosen per
// join); callers wanting per-join operator choice should post-process.
type Options struct {
	// Spec is the exact costing specification (metric, operator, params).
	Spec cost.Spec
	// PartitionCap bounds partition size (0: DefaultPartitionCap; at
	// least 2 and at most dp.MaxTables, the left-deep DP's ceiling).
	PartitionCap int
	// SeamFrac is the fraction of the time left before the context's
	// deadline that is reserved for seam re-optimization after partition
	// solves and stitching (0: default). Without a deadline every
	// partition DP runs to completion.
	SeamFrac float64
	// OnImprovement receives every new best global plan with its exact
	// cost: the first stitched plan, then each improving seam window.
	OnImprovement func(*plan.Plan, float64)
}

func (o Options) withDefaults() Options {
	if o.PartitionCap <= 0 {
		o.PartitionCap = DefaultPartitionCap
	}
	o.PartitionCap = min(max(o.PartitionCap, 2), dp.MaxTables)
	if o.SeamFrac <= 0 || o.SeamFrac >= 1 {
		o.SeamFrac = DefaultSeamFrac
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
	// bushy optimum when the whole query is one partition of at most 13
	// tables, else the cherry bound.
	Bound float64
	// PartitionSizes lists the decomposition (len 1: no decomposition).
	PartitionSizes []int
	// SeamImproved reports whether seam re-optimization beat the stitch.
	SeamImproved bool
	// Optimal reports Cost == Bound (outside degenerate cases, only with
	// the bushy bound).
	Optimal bool
	// TimedOut reports the context, or the solve phase's share of its
	// deadline, cut the run short.
	TimedOut bool
}

// Optimize runs the hybrid decomposition pipeline. It always returns a
// feasible plan for a valid query: every stage (partition solve, stitch,
// seam) has a greedy fallback under deadline pressure. A query that fits
// one partition takes the same path, with a single partition to stitch.
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
	res := &Result{PartitionSizes: sizes}

	// The seam fraction of the budget is reserved for the polish loop;
	// every partition DP and the quotient DP run under the rest.
	solveCtx := ctx
	if dl, ok := ctx.Deadline(); ok {
		now := time.Now()
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithDeadline(ctx, now.Add(time.Duration((1-opts.SeamFrac)*float64(dl.Sub(now)))))
		defer cancel()
	}

	orders := make([][]int, len(parts))
	for i, p := range parts {
		var exact bool
		orders[i], exact = solvePartition(solveCtx, q, p, opts.Spec)
		if !exact {
			res.TimedOut = true
		}
	}

	st := newStitcher(q, opts.Spec, orders)
	var partOrder []int
	if len(parts) <= quotientDPMax {
		var ok bool
		partOrder, ok = st.orderDP(solveCtx)
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
	if ctx.Err() == nil {
		boundaries := make([]int, 0, len(partOrder)-1)
		at := 0
		for _, p := range partOrder[:len(partOrder)-1] {
			at += st.sizes[p]
			boundaries = append(boundaries, at)
		}
		order, _ = seamOptimize(ctx, q, opts.Spec, order, boundaries, func(cur []int) {
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
	if ctx.Err() != nil {
		res.TimedOut = true
	}

	res.Plan = bestPlan
	res.Cost = bestCost
	res.Bound = lowerBound(q, opts.Spec)
	if len(parts) == 1 && q.NumTables() <= boundDPMax {
		// The bushy optimum bounds every plan, and it is cheap this small.
		if _, c, err := dp.OptimizeBushy(ctx, q, opts.Spec, dp.BushyOptions{}); err == nil {
			res.Bound = c
		}
	}
	res.Optimal = res.Cost <= res.Bound*(1+1e-9)
	return res, nil
}

// solvePartition returns one partition's join order in global table ids:
// the left-deep optimum of its sub-query, or the greedy order when the
// context ends the DP first. exact reports the former.
func solvePartition(ctx context.Context, q *qopt.Query, p Partition, spec cost.Spec) (order []int, exact bool) {
	if len(p.Tables) == 1 {
		return []int{p.Tables[0]}, true
	}
	sub, _ := subQuery(q, p)
	var pl *plan.Plan
	if ctx.Err() == nil {
		pl, _, _ = dp.OptimizeLeftDeep(ctx, sub, spec, dp.Options{})
	}
	exact = pl != nil
	if !exact {
		pl, _, _ = dp.GreedyLeftDeep(sub, spec)
	}
	if pl == nil { // cannot happen for a valid sub-query; stay safe
		return append([]int(nil), p.Tables...), false
	}
	order = make([]int, len(pl.Order))
	for j, li := range pl.Order {
		order[j] = p.Tables[li]
	}
	return order, exact
}

func clonePlan(p *plan.Plan) *plan.Plan {
	cp := &plan.Plan{Order: append([]int(nil), p.Order...)}
	if p.Operators != nil {
		cp.Operators = append([]cost.Operator(nil), p.Operators...)
	}
	return cp
}
