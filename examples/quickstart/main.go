// Quickstart: optimize a join query through the public joinorder API and
// print the plan with its proven optimality bound.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"milpjoin/joinorder"
)

func main() {
	// The paper's running example: R ⋈ S ⋈ T with one predicate R–S.
	query := &joinorder.Query{
		Tables: []joinorder.Table{
			{Name: "R", Card: 10},
			{Name: "S", Card: 1000},
			{Name: "T", Card: 100},
		},
		Predicates: []joinorder.Predicate{
			{Name: "R.id = S.rid", Tables: []int{0, 1}, Sel: 0.1},
		},
	}

	// The default strategy is the paper's MILP encoding: cardinalities
	// approximated on a geometric threshold ladder (here within a factor
	// of 3) and minimized under the C_out metric — the sum of
	// intermediate result sizes.
	result, err := joinorder.Optimize(context.Background(), query, joinorder.Options{
		Precision: joinorder.PrecisionHigh,
		Metric:    joinorder.Cout,
		Budget:    joinorder.Budget{TimeLimit: 10 * time.Second, Threads: 2},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("status:         %v\n", result.Status)
	fmt.Printf("join order:     %s\n", result.Plan)
	fmt.Printf("approx. C_out:  %.0f (MILP objective)\n", result.Objective)
	fmt.Printf("exact C_out:    %.0f\n", result.Cost)
	fmt.Printf("proven bound:   %.0f (gap %.4f)\n", result.Bound, result.Gap)

	// Every strategy answers through the same interface; compare against
	// the exact dynamic programming baseline.
	exact, err := joinorder.Optimize(context.Background(), query, joinorder.Options{
		Strategy: "dp-leftdeep",
		Metric:   joinorder.Cout,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dp-leftdeep:    %s cost %.0f (%v)\n", exact.Plan, exact.Cost, exact.Status)
}
