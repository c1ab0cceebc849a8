package heuristic

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

func TestHeuristicsProduceValidPlans(t *testing.T) {
	for _, shape := range workload.Shapes() {
		q := workload.Generate(shape, 8, 3, workload.Config{})
		pl, c, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if err := pl.Validate(q); err != nil {
			t.Fatalf("%v: invalid plan: %v", shape, err)
		}
		recost, err := plan.Cost(q, pl, cost.CoutSpec())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(recost-c) > 1e-9*(1+c) {
			t.Fatalf("%v: reported %g, actual %g", shape, c, recost)
		}
	}
}

func TestHeuristicsNeverBeatOptimal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		q := workload.Generate(workload.Cycle, 7, seed, workload.Config{})
		_, opt, err := dp.OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, c, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if c < opt-1e-6*(1+opt) {
			t.Fatalf("seed %d: gradient descent %g beats optimum %g", seed, c, opt)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	q := workload.Generate(workload.Chain, 9, 4, workload.Config{})
	var runs [2][]float64 // every improvement, then the final cost
	for i := range runs {
		_, c, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{
			Seed:          11,
			OnImprovement: func(_ *plan.Plan, c float64, _ time.Duration) { runs[i] = append(runs[i], c) },
		})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = append(runs[i], c)
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Errorf("nondeterministic with fixed seed: %v vs %v", runs[0], runs[1])
	}
}

// TestDeadlineRespected: a 10ms context deadline stops a search whose
// default effort takes far longer, and the search still returns a valid
// plan.
func TestDeadlineRespected(t *testing.T) {
	q := workload.Generate(workload.Chain, 60, 5, workload.Config{})
	start := time.Now()
	if _, _, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	pl, _, err := GradientDescent(ctx, q, cost.CoutSpec(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(q); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if elapsed := time.Since(start); elapsed > full/2 {
		t.Errorf("ran %v under a 10ms deadline; the whole search takes %v", elapsed, full)
	}
}

// TestKeepsPlanOfInfiniteCost: on a 150-table chain every plan's cost
// overflows to +Inf, and the search still returns the first plan it tried,
// as greedy does, rather than no plan.
func TestKeepsPlanOfInfiniteCost(t *testing.T) {
	q := workload.Generate(workload.Chain, 150, 1, workload.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var improvements int
	pl, c, err := GradientDescent(ctx, q, cost.DefaultSpec(), Options{
		Seed:          1,
		OnImprovement: func(*plan.Plan, float64, time.Duration) { improvements++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(q); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if !math.IsInf(c, 1) {
		t.Fatalf("cost %g: the query no longer overflows, so the test shows nothing", c)
	}
	if improvements != 1 {
		t.Errorf("%d improvements reported, want 1: the first plan", improvements)
	}
}

func TestOnImprovementMonotone(t *testing.T) {
	q := workload.Generate(workload.Cycle, 10, 6, workload.Config{})
	var costs []float64
	_, _, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{
		Seed: 3,
		OnImprovement: func(p *plan.Plan, c float64, _ time.Duration) {
			costs = append(costs, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) == 0 {
		t.Fatal("no improvements observed")
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] >= costs[i-1] {
			t.Errorf("non-improving callback: %g → %g", costs[i-1], costs[i])
		}
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	bad := &qopt.Query{Tables: []qopt.Table{{Card: 5}}}
	if _, _, err := GradientDescent(context.Background(), bad, cost.CoutSpec(), Options{}); err == nil {
		t.Error("gradient descent accepted an invalid query")
	}
}

// TestGradientDescentFindsSmallOptimum: on a 6-table query the SPSA
// relaxation with its restarts lands on (or very near) the left-deep
// optimum.
func TestGradientDescentFindsSmallOptimum(t *testing.T) {
	q := workload.Generate(workload.Chain, 6, 7, workload.Config{})
	_, opt, err := dp.OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c > opt*1.05 {
		t.Fatalf("gradient descent cost %g, optimum %g", c, opt)
	}
}

// TestGradientDescentAnytime: OnImprovement fires with strictly
// decreasing costs and each published plan is valid.
func TestGradientDescentAnytime(t *testing.T) {
	q := workload.Generate(workload.Star, 9, 4, workload.Config{})
	last := math.Inf(1)
	calls := 0
	_, final, err := GradientDescent(context.Background(), q, cost.CoutSpec(), Options{
		Seed: 1,
		OnImprovement: func(p *plan.Plan, c float64, _ time.Duration) {
			calls++
			if c >= last {
				t.Errorf("improvement %d not monotone: %g after %g", calls, c, last)
			}
			last = c
			if err := p.Validate(q); err != nil {
				t.Errorf("improvement %d invalid plan: %v", calls, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no improvements published")
	}
	if final != last {
		t.Errorf("final cost %g differs from last published improvement %g", final, last)
	}
}
