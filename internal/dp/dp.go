// Package dp implements the classical exhaustive baselines the paper
// compares against: Selinger-style dynamic programming over table subsets
// for left-deep plans with cross products, plus an exhaustive permutation
// search (test oracle) and a greedy heuristic.
//
// Dynamic programming is deliberately *not* an anytime algorithm: it
// produces nothing until it finishes, which is exactly the behaviour the
// paper's Figure 2 contrasts with the MILP approach.
package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// ErrTooLarge reports that the query exceeds the subset-table budget.
var ErrTooLarge = errors.New("dp: query too large for dynamic programming")

// MaxTables is the largest query OptimizeLeftDeep accepts: it guards the
// left-deep DP against the 2^n memory blow-up.
const MaxTables = 24

// Options tune the DP run.
type Options struct {
	// ChooseOperators selects the cheapest operator per join instead of
	// the Spec's fixed operator (only relevant for OperatorCost).
	ChooseOperators bool
}

// OptimizeLeftDeep finds the cost-minimal left-deep plan (cross products
// allowed) by dynamic programming over table subsets, priced on the
// cardinality lattice of package plan so the DP's cost is the cost
// plan.Cost reports for its plan. The subset loop polls the context
// periodically; a context that ends, by deadline or cancel, aborts with its
// error (DP has no anytime behaviour, so no partial plan is returned).
func OptimizeLeftDeep(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Plan, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("dp: %w", err)
	}
	n := q.NumTables()
	if n > MaxTables {
		return nil, 0, fmt.Errorf("%w: %d tables (limit %d)", ErrTooLarge, n, MaxTables)
	}
	lat := plan.NewIndex(q).Lattice(nil, allTables(n), spec)

	size := 1 << n
	best := make([]float64, size)
	choice := make([]int32, size)
	for s := 1; s < size; s++ {
		best[s] = math.Inf(1)
		choice[s] = -1
	}
	chooseOps := opts.ChooseOperators && spec.Metric == cost.OperatorCost

	full := size - 1
	check := 0
	for s := 1; s < size; s++ {
		if check++; check&0xFFFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("dp: %w", err)
			}
		}
		// Left-deep recurrence: last joined table r. Under C_out the join's
		// cost is its result, whichever table r is.
		result := lat.Result(uint32(s))
		for rest := s; rest != 0; {
			r := bits.TrailingZeros(uint(rest))
			rest &^= 1 << r
			sub := s &^ (1 << r)
			if math.IsInf(best[sub], 1) {
				continue
			}
			joinCost := result
			switch {
			case chooseOps:
				joinCost = math.Inf(1)
				for _, op := range cost.Operators() {
					joinCost = math.Min(joinCost, lat.Step(uint32(sub), r, op))
				}
			case spec.Metric != cost.Cout:
				joinCost = lat.Step(uint32(sub), r, spec.Op)
			}
			if total := best[sub] + joinCost; total < best[s] {
				best[s] = total
				choice[s] = int32(r)
			}
		}
	}

	if math.IsInf(best[full], 1) {
		return nil, 0, errors.New("dp: no plan found (internal error)")
	}

	// Reconstruct the join order.
	order := make([]int, n)
	s := full
	for k := n - 1; k >= 0; k-- {
		r := int(choice[s])
		order[k] = r
		s &^= 1 << r
	}

	pl := &plan.Plan{Order: order}
	if chooseOps {
		pl.Operators = assignBestOperators(q, pl, spec.Params.WithDefaults())
	}
	return pl, best[full], nil
}

// allTables is the identity window 0..n-1.
func allTables(n int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = i
	}
	return ts
}

// assignBestOperators walks a plan and picks the cheapest operator per join
// given the exact operand cardinalities.
func assignBestOperators(q *qopt.Query, pl *plan.Plan, params cost.Params) []cost.Operator {
	eval, err := plan.Evaluate(q, pl, cost.Spec{Metric: cost.OperatorCost, Op: cost.HashJoin, Params: params})
	if err != nil {
		return nil
	}
	ops := make([]cost.Operator, len(eval.Steps))
	for j, step := range eval.Steps {
		pgo := params.Pages(step.OuterCard)
		pgi := params.Pages(step.InnerCard)
		bestOp, bestCost := cost.HashJoin, math.Inf(1)
		for _, op := range cost.Operators() {
			if c := cost.JoinCost(op, pgo, pgi, params); c < bestCost {
				bestOp, bestCost = op, c
			}
		}
		ops[j] = bestOp
	}
	return ops
}

// ExhaustiveLeftDeep enumerates every permutation; a test oracle for small
// queries (n ≤ 9).
func ExhaustiveLeftDeep(q *qopt.Query, spec cost.Spec) (*plan.Plan, float64, error) {
	n := q.NumTables()
	if n > 9 {
		return nil, 0, fmt.Errorf("%w: exhaustive search limited to 9 tables", ErrTooLarge)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	bestCost := math.Inf(1)
	var bestOrder []int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			c, err := plan.Cost(q, &plan.Plan{Order: perm}, spec)
			if err == nil && c < bestCost {
				bestCost = c
				bestOrder = append([]int(nil), perm...)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if bestOrder == nil {
		return nil, 0, errors.New("dp: exhaustive search found no plan")
	}
	return &plan.Plan{Order: bestOrder}, bestCost, nil
}

// GreedyLeftDeep builds a plan by repeatedly appending the table that
// minimizes the next intermediate result cardinality (plan.Walk's, so
// filters and correlated-group corrections count). Linear-time heuristic;
// no optimality guarantee (used as a primal-quality yardstick).
func GreedyLeftDeep(q *qopt.Query, spec cost.Spec) (*plan.Plan, float64, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	n := q.NumTables()
	used := make([]bool, n)

	// Start from the smallest table.
	start := 0
	for t := 1; t < n; t++ {
		if q.Tables[t].Card < q.Tables[start].Card {
			start = t
		}
	}
	order := []int{start}
	used[start] = true
	w := plan.NewIndex(q).Walk()
	w.Add(start)

	for len(order) < n {
		bestT, bestCard := -1, math.Inf(1)
		for t := 0; t < n; t++ {
			if used[t] {
				continue
			}
			c := w.Peek(t)
			// bestT == -1 keeps the first candidate even when every
			// product has overflowed to +Inf (hundreds of tables), where
			// no strict comparison would ever pick one.
			if bestT == -1 || c < bestCard {
				bestT, bestCard = t, c
			}
		}
		used[bestT] = true
		w.Add(bestT)
		order = append(order, bestT)
	}

	pl := &plan.Plan{Order: order}
	c, err := plan.Cost(q, pl, spec)
	if err != nil {
		return nil, 0, err
	}
	return pl, c, nil
}
