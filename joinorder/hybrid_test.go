package joinorder_test

import (
	"context"
	"math"
	"testing"
	"time"

	"milpjoin/internal/obs"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestHybridLargeSnowflake: the headline capability — a 120-table query
// gets a feasible stitched plan with a finite lower bound inside a 5s
// budget, far beyond what the monolithic exact or MILP strategies reach.
func TestHybridLargeSnowflake(t *testing.T) {
	q := workload.Generate(workload.Snowflake, 120, 1, workload.Config{})
	start := time.Now()
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: "hybrid",
		Budget:   joinorder.Budget{TimeLimit: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Errorf("took %v, want well under the 5s budget plus slack", elapsed)
	}
	if res.Plan == nil || len(res.Plan.Order) != 120 {
		t.Fatal("no complete plan returned")
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if math.IsInf(res.Bound, 0) || math.IsNaN(res.Bound) || res.Bound < 0 {
		t.Errorf("bound %g not finite", res.Bound)
	}
	if res.Cost <= 0 || math.IsInf(res.Cost, 0) {
		t.Errorf("cost %g", res.Cost)
	}
	if res.Bound > res.Cost {
		t.Errorf("bound %g above cost %g", res.Bound, res.Cost)
	}
	if res.Strategy != "hybrid" || res.Tree == nil {
		t.Errorf("strategy %q tree %v", res.Strategy, res.Tree != nil)
	}
}

// TestHybridSmallMatchesExactBound: under the partition cap the hybrid
// takes the exact path — its bound equals the bushy optimum from dp-bushy.
func TestHybridSmallMatchesExactBound(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		q := workload.Generate(workload.Star, 8, seed, workload.Config{})
		res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: "hybrid"})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := joinorder.Optimize(context.Background(), q, joinorder.Options{Strategy: "dp-bushy"})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(res.Bound-exact.Cost) / exact.Cost; diff > 1e-9 {
			t.Errorf("seed %d: hybrid bound %g, bushy optimum %g", seed, res.Bound, exact.Cost)
		}
		if res.Cost < res.Bound*(1-1e-9) {
			t.Errorf("seed %d: cost %g below bound %g", seed, res.Cost, res.Bound)
		}
		if res.Status == joinorder.StatusOptimal && math.Abs(res.Cost-res.Bound)/exact.Cost > 1e-9 {
			t.Errorf("seed %d: optimal status but cost %g != bound %g", seed, res.Cost, res.Bound)
		}
	}
}

// TestHybridAnytimeSurface: every improvement flows through OnPlan and
// OnEvent with monotone costs ending at the final result.
func TestHybridAnytimeSurface(t *testing.T) {
	q := workload.Generate(workload.Transitive, 40, 5, workload.Config{})
	var planCosts []float64
	var eventCosts []float64
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy:     "hybrid",
		Budget:       joinorder.Budget{TimeLimit: 5 * time.Second},
		PartitionCap: 8,
		OnPlan: func(u joinorder.PlanUpdate) {
			if u.Strategy != "hybrid" {
				t.Errorf("plan update from %q", u.Strategy)
			}
			planCosts = append(planCosts, u.Cost)
		},
		OnEvent: func(ev joinorder.Event) {
			if ev.Kind == obs.KindIncumbent {
				eventCosts = append(eventCosts, ev.Incumbent)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(planCosts) == 0 || len(eventCosts) == 0 {
		t.Fatalf("no anytime traffic: %d plan updates, %d incumbent events", len(planCosts), len(eventCosts))
	}
	for i := 1; i < len(planCosts); i++ {
		if planCosts[i] > planCosts[i-1] {
			t.Fatalf("plan updates not monotone: %v", planCosts)
		}
	}
	if last := planCosts[len(planCosts)-1]; last != res.Cost {
		t.Errorf("last update %g, final cost %g", last, res.Cost)
	}
}

// TestHybridInPortfolio: hybrid races as an explicit auto member and the
// portfolio completes with a valid winner.
func TestHybridInPortfolio(t *testing.T) {
	q := workload.Generate(workload.Snowflake, 40, 2, workload.Config{})
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy:  "auto",
		Portfolio: []string{"hybrid", "greedy"},
		Budget:    joinorder.Budget{TimeLimit: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "hybrid" && res.Winner != "greedy" {
		t.Errorf("winner %q", res.Winner)
	}
	if res.Tree == nil {
		t.Error("no tree from portfolio race")
	}
	if err := res.Tree.Validate(q); err != nil {
		t.Errorf("invalid winning tree: %v", err)
	}
}
