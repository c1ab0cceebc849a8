package presolve

import (
	"context"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/milp"
	"milpjoin/internal/workload"
)

// TestReplayMatchesProduction holds the benchmark's staged replay, which
// runs presolve before branch and bound, to the solve path, which does not:
// on join-ordering encodings presolve removes nothing, and the search on its
// output is the search on the encoded model, node for node and iteration
// for iteration. Both sides get the greedy MIP start, as both callers do.
func TestReplayMatchesProduction(t *testing.T) {
	spec := cost.Spec{Metric: cost.OperatorCost, Op: cost.HashJoin, Params: cost.Params{}.WithDefaults()}
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star} {
		for _, n := range []int{8, 10, 20} {
			q := workload.Generate(shape, n, 1, workload.Config{})
			enc, err := core.Encode(q, core.Options{Precision: core.PrecisionMedium, Metric: spec.Metric, Op: spec.Op})
			if err != nil {
				t.Fatalf("%v-%d: %v", shape, n, err)
			}
			m := enc.Model
			pre, err := Apply(m, Options{})
			if err != nil {
				t.Fatalf("%v-%d: %v", shape, n, err)
			}
			if pre.Status != StatusReduced || pre.RowsRemoved != 0 || pre.ColsRemoved != 0 {
				t.Fatalf("%v-%d: presolve status %d removed %d rows and %d columns, want a reduced model with none removed",
					shape, n, pre.Status, pre.RowsRemoved, pre.ColsRemoved)
			}
			var start []float64
			if greedy, _, err := dp.GreedyLeftDeep(q, spec); err == nil {
				if vals, err := enc.AssignmentForPlan(greedy); err == nil && m.CheckFeasible(vals, 1e-6) == nil {
					start = vals
				}
			}
			replay := search(t, pre.Model, pre.Reduce(start))
			production := search(t, m, start)
			if replay.Nodes != production.Nodes || replay.SimplexIters != production.SimplexIters || replay.Bound != production.Bound {
				t.Errorf("%v-%d: after presolve %d nodes, %d iterations, bound %v; without %d nodes, %d iterations, bound %v",
					shape, n, replay.Nodes, replay.SimplexIters, replay.Bound,
					production.Nodes, production.SimplexIters, production.Bound)
			}
		}
	}
}

// search runs single-threaded branch and bound, capped at 50 nodes, on the
// compiled model from the model-space MIP start (nil for none).
func search(t *testing.T, m *milp.Model, start []float64) *bb.Result {
	t.Helper()
	comp := m.Compile()
	params := bb.Params{MaxNodes: 50, Threads: 1}
	if start != nil {
		params.InitialIncumbent = make([]float64, len(start))
		for j, v := range start {
			params.InitialIncumbent[j] = v / comp.ColScale[j]
		}
	}
	res, err := bb.Solve(context.Background(), comp, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
