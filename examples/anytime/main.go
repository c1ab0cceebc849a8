// Anytime optimization: the property the paper gets for free from MILP
// solvers, surfaced in the public API as context cancellation. On a
// 30-table chain query — beyond what dynamic programming finishes in this
// budget — the solver streams plans of improving quality together with a
// proven bound; when the context deadline fires mid-solve, the API still
// returns the best plan found with its quality guarantee.
//
//	go run ./examples/anytime
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

func main() {
	const tables = 30
	budget := 15 * time.Second
	query := workload.Generate(workload.Chain, tables, 7, workload.Config{})

	fmt.Printf("chain query, %d tables — anytime MILP optimization (budget %v)\n", tables, budget)
	fmt.Printf("%-10s %-14s %-14s %s\n", "time", "incumbent", "lower bound", "proven Cost/LB")

	// Budget.TimeLimit becomes a deadline on this context: the solver
	// stops at whichever deadline comes first — here the context's.
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	res, err := joinorder.Optimize(ctx, query, joinorder.Options{
		Precision: joinorder.PrecisionMedium,
		Metric:    joinorder.OperatorCost,
		Op:        joinorder.HashJoin,
		Budget: joinorder.Budget{
			TimeLimit: time.Minute, // the context deadline is tighter and wins
			GapTol:    0.5,         // stop once provably within 50% of the optimum
			Threads:   4,
		},
		// The event stream carries the anytime trajectory: incumbent and
		// bound events snapshot the best plan cost and proven bound.
		OnEvent: func(ev joinorder.Event) {
			if ev.Kind != joinorder.KindIncumbent && ev.Kind != joinorder.KindBound {
				return
			}
			if !ev.HasIncumbent {
				return
			}
			ratio := "inf"
			if ev.Bound > 0 {
				ratio = fmt.Sprintf("%.3f", ev.Incumbent/ev.Bound)
			}
			fmt.Printf("%-10s %-14.4g %-14.4g %s\n",
				ev.Elapsed.Truncate(time.Millisecond), ev.Incumbent, ev.Bound, ratio)
		},
	})
	if err != nil {
		log.Fatalf("no plan (%v)", err)
	}
	fmt.Printf("\nfinal: %v — plan %s\n", res.Status, res.Plan)
	fmt.Printf("guarantee: cost ≤ %.3f × optimal (MILP objective %.4g, bound %.4g)\n",
		res.Objective/res.Bound, res.Objective, res.Bound)
	if res.Stats != nil {
		fmt.Printf("\nwhere the time went:\n%s\n", res.Stats)
	}

	// The baseline the paper compares against: dynamic programming gets
	// the same budget and produces nothing until it finishes.
	fmt.Printf("\ndynamic programming with the same budget: ")
	dpCtx, dpCancel := context.WithTimeout(context.Background(), budget)
	defer dpCancel()
	start := time.Now()
	dpRes, err := joinorder.Optimize(dpCtx, query, joinorder.Options{
		Strategy: "dp-leftdeep",
		Metric:   joinorder.OperatorCost,
		Op:       joinorder.HashJoin,
	})
	switch {
	case errors.Is(err, joinorder.ErrCanceled), errors.Is(err, joinorder.ErrNoPlan):
		fmt.Printf("no plan after %v (%v)\n", time.Since(start).Truncate(time.Millisecond), err)
	case err != nil:
		log.Fatal(err)
	default:
		fmt.Printf("optimal plan, cost %.4g, in %v\n", dpRes.Cost, time.Since(start).Truncate(time.Millisecond))
	}
}
