// End to end: optimize a query with the MILP encoder, then actually run
// the chosen plan (and a deliberately bad one) over synthesized data with
// the streaming hash-join executor — showing that the cost model's
// preferences translate into real intermediate-result sizes and that every
// join order returns the same answer.
//
//	go run ./examples/endtoend
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/exec"
	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

func main() {
	// Small cardinalities so the worst plan stays executable.
	query := workload.Generate(workload.Chain, 5, 12, workload.Config{
		MinLogCard: 1.5, MaxLogCard: 2.3, // ~30 … 200 rows
		MinSel: 0.01, MaxSel: 0.1,
	})
	for i, t := range query.Tables {
		fmt.Printf("table %s: %.0f rows", t.Name, t.Card)
		if i < len(query.Predicates) {
			p := query.Predicates[i]
			fmt.Printf("   predicate %s: T%d–T%d sel %.3f", p.Name, p.Tables[0], p.Tables[1], p.Sel)
		}
		fmt.Println()
	}

	res, err := joinorder.Optimize(context.Background(), query, joinorder.Options{
		Precision: joinorder.PrecisionHigh,
		Metric:    joinorder.Cout,
		Budget:    joinorder.Budget{TimeLimit: 10 * time.Second, Threads: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMILP-optimal plan: %s (estimated C_out %.0f)\n", res.Plan, res.Cost)

	db, err := exec.Synthesize(query, 99)
	if err != nil {
		log.Fatal(err)
	}

	// A deliberately bad plan: reverse order (cross products first on
	// chain queries).
	n := query.NumTables()
	bad := &plan.Plan{Order: make([]int, n)}
	for i := range bad.Order {
		bad.Order[i] = res.Plan.Order[n-1-i]
	}
	badCost, err := plan.Cost(query, bad, cost.CoutSpec())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adversarial plan:  %s (estimated C_out %.0f)\n\n", bad, badCost)

	run := func(name string, p *plan.Plan) int {
		start := time.Now()
		stream, err := db.Stream(p.LeftDeep(), exec.StreamOptions{})
		if err != nil {
			log.Fatal(err)
		}
		out, err := stream.Collect()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %8d result rows in %8s\n", name, out.NumRows(), time.Since(start).Truncate(time.Microsecond))
		return out.NumRows()
	}
	optRows := run("optimal plan:", res.Plan)
	badRows := run("adversarial plan:", bad)

	if optRows != badRows {
		log.Fatalf("join orders disagree on the result: %d vs %d rows", optRows, badRows)
	}
	fmt.Println("\nboth plans return the same result — the cost difference is purely")
	fmt.Println("in the intermediate work, which is what the MILP minimizes.")
}
