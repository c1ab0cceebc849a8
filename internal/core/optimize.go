package core

import (
	"context"
	"fmt"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/milp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/solver"
)

// Result is the outcome of an end-to-end MILP-based optimization run.
type Result struct {
	// Plan is the best plan found (nil when the solver found none).
	Plan *plan.Plan
	// MILPObj is the plan's objective under the MILP's approximated cost.
	MILPObj float64
	// ExactCost is the plan's exact cost under the matching cost.Spec.
	ExactCost float64
	// Solver carries the underlying solver result (status, bound, gap,
	// node and iteration counts, timing).
	Solver *solver.Result
	// Encoding is retained for inspection (model statistics, decode of
	// alternative solutions).
	Encoding *Encoding
	// MIPStart reports which initial incumbent survived the feasibility
	// check and seeded branch and bound: "plan" (Options.InitialPlan),
	// "greedy" (the default heuristic), or "" when the search started
	// cold.
	MIPStart string
}

// Spec returns the exact-costing spec matching the encoder options: the
// same metric, operator, and physical parameters the MILP approximates.
func (o Options) Spec() cost.Spec {
	op := o.Op
	if o.Metric == cost.OperatorCost && !o.ChooseOperators && op == 0 {
		op = cost.HashJoin
	}
	return cost.Spec{Metric: o.Metric, Op: op, Params: o.CostParams.WithDefaults()}
}

// Optimize encodes the query, solves the MILP, and decodes the incumbent
// into a plan. Anytime callbacks in params surface the solver's incumbent
// objective and lower bound as optimization progresses, giving the
// guaranteed-quality traces of the paper's Figure 2.
//
// Unless the caller supplies their own InitialSolution, a greedy join
// order is injected as a MIP start where the encoding supports it, so the
// solver has an incumbent (and hence a bounded Cost/LB ratio) from the
// first moment — mirroring the primal heuristics commercial solvers run.
//
// The context is honored throughout the solver stack: cancelling it
// mid-solve returns promptly with bb.StatusCanceled and the best
// incumbent plan found so far, and a context deadline composes with
// params.TimeLimit as the minimum of the two.
func Optimize(ctx context.Context, q *qopt.Query, opts Options, params solver.Params) (*Result, error) {
	enc, err := Encode(q, opts)
	if err != nil {
		return nil, err
	}
	mipStart := ""
	if params.InitialSolution != nil {
		mipStart = "caller"
	}
	if params.InitialSolution == nil && opts.InitialPlan != nil {
		if start, aerr := enc.AssignmentForPlan(opts.InitialPlan); aerr == nil {
			if enc.Model.CheckFeasible(start, 1e-6) == nil {
				params.InitialSolution = start
				mipStart = "plan"
			}
		}
	}
	if params.InitialSolution == nil {
		if greedy, _, gerr := dp.GreedyLeftDeep(q, opts.Spec()); gerr == nil {
			if start, aerr := enc.AssignmentForPlan(greedy); aerr == nil {
				if enc.Model.CheckFeasible(start, 1e-6) == nil {
					params.InitialSolution = start
					mipStart = "greedy"
				}
			}
		}
	}
	if opts.Incumbents != nil && params.Incumbents == nil {
		// Live injection pump: plans arriving mid-solve are translated
		// into model-space assignments and forwarded to the solver,
		// which offers them to branch and bound at node boundaries.
		// The stop channel unblocks a pending send once the solve
		// returns so a slow consumer never strands the sender.
		inner := make(chan []float64, 4)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			defer close(inner)
			for {
				select {
				case <-stop:
					return
				case pl, ok := <-opts.Incumbents:
					if !ok {
						return
					}
					if pl == nil {
						continue
					}
					vals, aerr := enc.AssignmentForPlan(pl)
					if aerr != nil || enc.Model.CheckFeasible(vals, 1e-6) != nil {
						continue
					}
					select {
					case inner <- vals:
					case <-stop:
						return
					}
				}
			}
		}()
		params.Incumbents = inner
	}
	sres, err := solver.Solve(ctx, enc.Model, params)
	if err != nil {
		return nil, err
	}
	out := &Result{Solver: sres, Encoding: enc, MIPStart: mipStart}
	if sres.Solution == nil {
		return out, nil
	}
	pl, err := enc.Decode(sres.Solution)
	if err != nil {
		return nil, fmt.Errorf("core: decoding incumbent: %w", err)
	}
	out.Plan = pl
	out.MILPObj = sres.Solution.Obj
	exact, err := plan.Cost(q, pl, opts.Spec())
	if err != nil {
		return nil, err
	}
	out.ExactCost = exact
	return out, nil
}

// Stats returns the size snapshot of the encoded model (variables,
// integer variables, constraints, nonzeros) — the quantities of Figure 1
// and Theorems 1–2.
func (e *Encoding) Stats() milp.Snapshot { return e.Model.Stats() }
