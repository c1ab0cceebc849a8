package joinorder_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/joinorder"
)

// TestEveryStrategyReportsTheTreeCost: on a 5-table chain whose predicates
// cost 50/20/0/80 per tuple to evaluate, under hash cost, every registered
// strategy reports as Cost what plan.TreeCost gives its tree and plan.Cost
// gives its plan — one cost function per query, whatever the strategy.
func TestEveryStrategyReportsTheTreeCost(t *testing.T) {
	q := &joinorder.Query{}
	for i, c := range []float64{1000, 100, 10, 5000, 300} {
		q.Tables = append(q.Tables, joinorder.Table{Name: fmt.Sprintf("T%d", i), Card: c})
	}
	for i, sel := range []float64{0.01, 0.1, 0.01, 0.005} {
		ec := []float64{50, 20, 0, 80}[i]
		q.Predicates = append(q.Predicates, joinorder.Predicate{Tables: []int{i, i + 1}, Sel: sel, EvalCostPerTuple: ec})
	}
	spec := cost.DefaultSpec()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for _, name := range joinorder.Strategies() {
		res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
			Strategy: name,
			Metric:   joinorder.OperatorCost,
			Op:       joinorder.HashJoin,
			Budget:   joinorder.Budget{TimeLimit: 30 * time.Second, Threads: 1},
			Seed:     1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tc, err := plan.TreeCost(q, res.Tree, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !near(res.Cost, tc) {
			t.Errorf("%s: Cost %g, TreeCost of its tree %v %g", name, res.Cost, res.Tree, tc)
		}
		if res.Plan == nil {
			continue
		}
		if pc, err := plan.Cost(q, res.Plan, spec); err != nil || !near(res.Cost, pc) {
			t.Errorf("%s: Cost %g, plan.Cost of its plan %v %g (%v)", name, res.Cost, res.Plan, pc, err)
		}
	}
}
