package joinorder_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// smallQuery is cheap enough for every strategy, including exact DP and a
// full MILP solve.
func smallQuery() *joinorder.Query {
	return workload.Generate(workload.Star, 7, 3, workload.Config{})
}

// largeQuery produces a MILP far beyond what the solver proves optimal in
// milliseconds, so cancellation reliably lands mid-solve.
func largeQuery() *joinorder.Query {
	return workload.Generate(workload.Star, 22, 1, workload.Config{})
}

func TestEveryRegisteredStrategyOptimizes(t *testing.T) {
	q := smallQuery()
	for _, name := range joinorder.Strategies() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
				Strategy: name,
				Budget:   joinorder.Budget{TimeLimit: 30 * time.Second},
				Seed:     1,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Strategy != name {
				t.Errorf("result strategy %q, want %q", res.Strategy, name)
			}
			if res.Tree == nil {
				t.Fatalf("%s: nil tree on success", name)
			}
			// The bushy-capable strategies (dp-bushy, and auto when it
			// wins there) return a Tree and only attach a Plan when the
			// optimum happens to be left-deep.
			bushyCapable := name == "dp-bushy" || name == "auto"
			if !bushyCapable && res.Plan == nil {
				t.Fatalf("%s: nil plan on success", name)
			}
			if res.Plan != nil {
				if err := res.Plan.Validate(q); err != nil {
					t.Errorf("%s: invalid plan: %v", name, err)
				}
			}
			if res.Cost <= 0 {
				t.Errorf("%s: non-positive cost %g", name, res.Cost)
			}
		})
	}
}

func TestRequiredStrategiesRegistered(t *testing.T) {
	// The registry is exactly these eight.
	want := []string{"auto", "dp-bushy", "dp-leftdeep", "gradient", "greedy", "hybrid", "ikkbz", "milp"}
	if got := joinorder.Strategies(); !reflect.DeepEqual(got, want) {
		t.Errorf("Strategies() = %v, want %v", got, want)
	}
	for _, name := range want {
		if _, err := joinorder.Lookup(name); err != nil {
			t.Errorf("required strategy %q not registered: %v", name, err)
		}
		if joinorder.Describe(name) == "" {
			t.Errorf("strategy %q has no description", name)
		}
	}
	if _, err := joinorder.Lookup(""); err != nil {
		t.Errorf("empty name should resolve to the default strategy: %v", err)
	}
}

// TestCancelMidSolveReturnsIncumbent is the anytime contract: cancelling
// the context mid-solve returns promptly with StatusCanceled and the best
// incumbent found so far plus a proven bound.
func TestCancelMidSolveReturnsIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	canceled := make(chan time.Time, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		canceled <- time.Now()
		cancel()
	}()

	res, err := joinorder.Optimize(ctx, largeQuery(), joinorder.Options{
		Strategy:  "milp",
		Precision: joinorder.PrecisionHigh,
		Budget:    joinorder.Budget{Threads: 2},
	})
	returned := time.Now()
	if err != nil {
		t.Fatalf("cancellation should return the incumbent, got error: %v", err)
	}
	if res.Status != joinorder.StatusCanceled {
		t.Errorf("status = %v, want %v", res.Status, joinorder.StatusCanceled)
	}
	if res.Plan == nil {
		t.Fatal("no incumbent plan returned on cancellation")
	}
	if math.IsNaN(res.Bound) || math.IsNaN(res.Cost) {
		t.Errorf("NaN in result: bound %g, cost %g", res.Bound, res.Cost)
	}
	// The stack polls the context every few simplex iterations, so the
	// unwind target is ~200ms; allow slack for race-instrumented CI.
	if latency := returned.Sub(<-canceled); latency > time.Second {
		t.Errorf("returned %v after cancellation, want well under a second", latency)
	}
}

// TestExpiredContextReturnsImmediately: a context that has already ended
// must not start branch and bound at all.
func TestExpiredContextReturnsImmediately(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	_, err := joinorder.Optimize(ctx, largeQuery(), joinorder.Options{Strategy: "milp"})
	if !errors.Is(err, joinorder.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Encoding the query is allowed; solving is not. The full MILP solve
	// takes minutes on this query, so a sub-second return proves branch
	// and bound never ran.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("took %v with an expired deadline", elapsed)
	}
}

// TestDPCancellation: the DP baselines are not anytime — cancellation
// yields ErrCanceled and no partial plan.
func TestDPCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"dp-leftdeep", "dp-bushy"} {
		res, err := joinorder.Optimize(ctx, smallQuery(), joinorder.Options{Strategy: name})
		if !errors.Is(err, joinorder.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: non-nil result %+v alongside cancellation", name, res)
		}
	}
}

func TestInvalidInputTypedErrors(t *testing.T) {
	ctx := context.Background()
	q := smallQuery()

	if _, err := joinorder.Optimize(ctx, nil, joinorder.Options{}); !errors.Is(err, joinorder.ErrInvalidQuery) {
		t.Errorf("nil query: err = %v, want ErrInvalidQuery", err)
	}
	single := &joinorder.Query{Tables: []joinorder.Table{{Name: "A", Card: 10}}}
	if _, err := joinorder.Optimize(ctx, single, joinorder.Options{}); !errors.Is(err, joinorder.ErrInvalidQuery) {
		t.Errorf("single-table query: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := joinorder.Optimize(ctx, q, joinorder.Options{Strategy: "quantum"}); !errors.Is(err, joinorder.ErrUnknownStrategy) {
		t.Errorf("unknown strategy: err = %v, want ErrUnknownStrategy", err)
	}
	// Bad option values return ErrInvalidOptions — the panics these used
	// to raise deep in the encoder are gone.
	for _, opts := range []joinorder.Options{
		{Precision: joinorder.Precision(42)},
		{Budget: joinorder.Budget{TimeLimit: -time.Second}},
		{Budget: joinorder.Budget{Threads: -1}},
		{Budget: joinorder.Budget{GapTol: -0.1}},
		{InterestingOrders: true},
		{Metric: joinorder.Metric(9)},
	} {
		if _, err := joinorder.Optimize(ctx, q, opts); !errors.Is(err, joinorder.ErrInvalidOptions) {
			t.Errorf("opts %+v: err = %v, want ErrInvalidOptions", opts, err)
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	if err := joinorder.Register(testStrategy{name: ""}); !errors.Is(err, joinorder.ErrInvalidOptions) {
		t.Errorf("empty name: err = %v", err)
	}
	if err := joinorder.Register(testStrategy{name: "milp"}); !errors.Is(err, joinorder.ErrInvalidOptions) {
		t.Errorf("duplicate name: err = %v", err)
	}
}

type testStrategy struct{ name string }

func (s testStrategy) Name() string        { return s.name }
func (s testStrategy) Description() string { return "test" }
func (s testStrategy) Optimize(context.Context, *joinorder.Query, joinorder.Options) (*joinorder.Result, error) {
	return nil, nil
}

// TestTimeLimitReturnsIncumbent: Budget.TimeLimit alone (no context
// deadline) also yields anytime behaviour on a query too large to finish.
func TestTimeLimitReturnsIncumbent(t *testing.T) {
	res, err := joinorder.Optimize(context.Background(), largeQuery(), joinorder.Options{
		Strategy: "milp",
		Budget:   joinorder.Budget{TimeLimit: 300 * time.Millisecond, Threads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != joinorder.StatusTimeLimit {
		t.Errorf("status = %v, want %v", res.Status, joinorder.StatusTimeLimit)
	}
	if res.Plan == nil {
		t.Fatal("no incumbent plan at the time limit")
	}
}

// TestContextDeadlineMapsToTimeLimit: a context deadline is a time budget,
// so it reports StatusTimeLimit — indistinguishable from Budget.TimeLimit.
func TestContextDeadlineMapsToTimeLimit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := joinorder.Optimize(ctx, largeQuery(), joinorder.Options{
		Strategy: "milp",
		Budget:   joinorder.Budget{Threads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != joinorder.StatusTimeLimit {
		t.Errorf("status = %v, want %v", res.Status, joinorder.StatusTimeLimit)
	}
	if res.Plan == nil {
		t.Fatal("no incumbent plan at the context deadline")
	}
}

// TestSearchCountersPinned pins what the MILP search does on three small
// queries — nodes, simplex iterations, proven bound and plan cost, recorded
// at the commit before node LPs began adopting retained factorizations —
// against literals. Work inside the LP solver that reuses what it already
// computed must not move any of them; only the number of LU factorizations
// may fall, and in the search it has to stay near one per node (it was 2.04).
// The last row is the other regime: 20 tables capped at 3 nodes, where one
// cold root LP is nearly all the iterations (recorded at the commit before
// the simplex passes began walking index lists). Chain-8's iteration count
// was 1400 while branch and bound still ran a diving heuristic: the 2
// iterations the root dive spent are gone, and nothing else moved.
func TestSearchCountersPinned(t *testing.T) {
	for _, tc := range []struct {
		shape       workload.GraphShape
		tables      int
		nodes       int
		iters       int
		bound, cost float64
		refactors   int // at most
	}{
		{workload.Chain, 8, 200, 1398, 3.928020283258756e+11, 5.659403260234245e+15, 260},
		{workload.Cycle, 8, 200, 1734, 1.7192393905082468e+11, 2.654057074044699e+15, 260},
		{workload.Star, 8, 200, 640, 3.857771121859081e+11, 1.703971373634369e+15, 260},
		{workload.Chain, 20, 3, 1921, 1.350832322268465e+12, 1.1961377424918034e+40, 30},
	} {
		q := workload.Generate(tc.shape, tc.tables, 1, workload.Config{})
		res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
			Strategy:  "milp",
			Metric:    joinorder.OperatorCost,
			Op:        joinorder.HashJoin,
			Precision: joinorder.PrecisionMedium,
			Budget:    joinorder.Budget{MaxNodes: tc.nodes, Threads: 1},
		})
		if err != nil {
			t.Fatalf("%v-%d: %v", tc.shape, tc.tables, err)
		}
		if res.Nodes != tc.nodes || res.Stats.SimplexIters != tc.iters || res.Bound != tc.bound || res.Cost != tc.cost {
			t.Errorf("%v-%d: nodes %d iters %d bound %v cost %v, want %d %d %v %v",
				tc.shape, tc.tables, res.Nodes, res.Stats.SimplexIters, res.Bound, res.Cost, tc.nodes, tc.iters, tc.bound, tc.cost)
		}
		if res.Stats.Refactorizations > tc.refactors {
			t.Errorf("%v-%d: %d LU factorizations for %d nodes, want at most %d", tc.shape, tc.tables, res.Stats.Refactorizations, res.Nodes, tc.refactors)
		}
	}
}

// TestMaxNodesCountsBeforeTheLP pins what a node cap means: a node is
// counted when it leaves the open pool, and the MaxNodes-th one stops the
// search before its LP runs. MaxNodes 1 therefore solves no LP and answers
// with the greedy MIP start and a −Inf bound; MaxNodes 2 solves the root LP
// (299 iterations on chain-8); MaxNodes 3 also solves the second node's LP,
// which its branching bound makes infeasible before a single iteration.
func TestMaxNodesCountsBeforeTheLP(t *testing.T) {
	q := workload.Generate(workload.Chain, 8, 1, workload.Config{})
	greedy, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: "greedy", Metric: joinorder.OperatorCost, Op: joinorder.HashJoin,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxNodes, iters int
		bound           float64
	}{
		{1, 0, math.Inf(-1)},
		{2, 299, 1.5300892578833472e+11},
		{3, 299, 1.5300892578833472e+11},
	} {
		res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
			Strategy:  "milp",
			Metric:    joinorder.OperatorCost,
			Op:        joinorder.HashJoin,
			Precision: joinorder.PrecisionMedium,
			Budget:    joinorder.Budget{MaxNodes: tc.maxNodes, Threads: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes != tc.maxNodes || res.Stats.SimplexIters != tc.iters || res.Bound != tc.bound {
			t.Errorf("MaxNodes %d: nodes %d iters %d bound %v, want %d %d %v",
				tc.maxNodes, res.Nodes, res.Stats.SimplexIters, res.Bound, tc.maxNodes, tc.iters, tc.bound)
		}
		if res.MIPStart != "greedy" || res.Cost != greedy.Cost {
			t.Errorf("MaxNodes %d: MIP start %q cost %v, want the greedy plan's %v", tc.maxNodes, res.MIPStart, res.Cost, greedy.Cost)
		}
	}
}
