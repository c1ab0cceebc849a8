package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
	"milpjoin/internal/portfolio"
	"milpjoin/internal/workload"
)

// TestLiveIncumbentInjectionInstalls: a plan published on the portfolio
// bus and taken through Options.Incumbents that beats the greedy MIP start in objective space is installed by
// branch and bound at a node boundary and surfaces as a KindInjected
// event plus the InjectedIncumbents counter. Chain-10/seed-5 is a fixture
// where the greedy seed maps ~22% above the left-deep optimum's MILP
// objective at high precision, so the injected optimum always improves
// the incumbent at the first drain.
func TestLiveIncumbentInjectionInstalls(t *testing.T) {
	q := workload.Generate(workload.Chain, 10, 5, workload.Config{})
	optPlan, optCost, err := dp.OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), dp.Options{})
	if err != nil {
		t.Fatal(err)
	}

	bus := portfolio.NewBus()
	bus.Publish("dp-leftdeep", optPlan, optCost)

	injectedEvents := 0
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := Optimize(ctx, q, Options{
		Metric:     cost.Cout,
		Precision:  PrecisionHigh,
		Incumbents: bus.Take,
		Threads:    2,
		OnEvent: func(ev obs.Event) {
			if ev.Kind == obs.KindInjected {
				injectedEvents++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MIPStart != "greedy" {
		t.Errorf("MIPStart = %q, want greedy (injection must not masquerade as the seed)", res.MIPStart)
	}
	if got := res.Stats.InjectedIncumbents; got < 1 {
		t.Errorf("InjectedIncumbents = %d, want ≥ 1", got)
	}
	if injectedEvents < 1 {
		t.Errorf("no KindInjected event on the stream")
	}
	if injectedEvents != res.Stats.InjectedIncumbents {
		t.Errorf("events %d != stats counter %d", injectedEvents, res.Stats.InjectedIncumbents)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	if res.ExactCost > optCost*(1+1e-6) {
		t.Errorf("final cost %g worse than the injected optimum %g", res.ExactCost, optCost)
	}
}

// TestInjectionRaceMonotoneEvents floods the portfolio bus from a
// concurrent goroutine for the whole solve while four workers take from it
// (run under -race in CI) and checks the serialized event stream stays
// coherent: incumbents only improve, bounds only tighten, sequence numbers
// only grow — no torn reads from the concurrent installs.
func TestInjectionRaceMonotoneEvents(t *testing.T) {
	const tables = 16
	q := workload.Generate(workload.Chain, tables, 9, workload.Config{})

	bus := portfolio.NewBus()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		// Publish random permutations continuously, each under a falling
		// cost so every one replaces the bus incumbent; infeasible or
		// worse candidates are filtered/rejected downstream, occasional
		// better ones install mid-solve.
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bus.Publish("flood", &plan.Plan{Order: rng.Perm(tables)}, -float64(i))
		}
	}()
	defer func() { close(stop); <-done }()

	var (
		lastSeq   int64 = -1
		incumbent       = math.Inf(1)
		bound           = math.Inf(-1)
		injected  int
	)
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	res, err := Optimize(ctx, q, Options{
		Metric:     cost.Cout,
		Precision:  PrecisionMedium,
		Incumbents: bus.Take,
		Threads:    4,
		OnEvent: func(ev obs.Event) {
			if int64(ev.Seq) <= lastSeq {
				t.Errorf("sequence not increasing: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = int64(ev.Seq)
			switch ev.Kind {
			case obs.KindIncumbent, obs.KindInjected:
				if ev.Kind == obs.KindInjected {
					injected++
				}
				if ev.HasIncumbent {
					if ev.Incumbent > incumbent*(1+1e-9) {
						t.Errorf("incumbent regressed: %g after %g (%v)", ev.Incumbent, incumbent, ev.Kind)
					}
					incumbent = math.Min(incumbent, ev.Incumbent)
				}
			case obs.KindBound:
				if ev.Bound < bound-1e-9*math.Abs(bound) {
					t.Errorf("bound loosened: %g after %g", ev.Bound, bound)
				}
				bound = math.Max(bound, ev.Bound)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan from an anytime solve")
	}
	if injected != res.Stats.InjectedIncumbents {
		t.Errorf("KindInjected events %d != stats counter %d", injected, res.Stats.InjectedIncumbents)
	}
}
