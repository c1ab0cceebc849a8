// Star schema: optimize a warehouse-style query — a fact table joined with
// five dimensions — letting the MILP pick the join operator per join
// (Section 5.3) and exploit interesting orders (Section 5.4): two dimension
// tables are stored sorted on their keys, so sort-merge joins can skip sort
// phases.
//
//	go run ./examples/starschema
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/joinorder"
)

func main() {
	query := &joinorder.Query{
		Tables: []joinorder.Table{
			{Name: "sales", Card: 500000},
			{Name: "date_dim", Card: 3650, Sorted: true},
			{Name: "store", Card: 120},
			{Name: "item", Card: 40000, Sorted: true},
			{Name: "customer", Card: 80000},
			{Name: "promo", Card: 300},
		},
		Predicates: []joinorder.Predicate{
			{Name: "sales.date = date_dim.id", Tables: []int{0, 1}, Sel: 1.0 / 3650},
			{Name: "sales.store = store.id", Tables: []int{0, 2}, Sel: 1.0 / 120},
			{Name: "sales.item = item.id", Tables: []int{0, 3}, Sel: 1.0 / 40000},
			{Name: "sales.cust = customer.id", Tables: []int{0, 4}, Sel: 1.0 / 80000},
			{Name: "sales.promo = promo.id", Tables: []int{0, 5}, Sel: 1.0 / 300},
		},
	}

	res, err := joinorder.Optimize(context.Background(), query, joinorder.Options{
		Precision:         joinorder.PrecisionHigh,
		Metric:            joinorder.OperatorCost,
		Op:                joinorder.HashJoin,
		CardCap:           1e9,
		ChooseOperators:   true,
		InterestingOrders: true,
		Budget:            joinorder.Budget{TimeLimit: 30 * time.Second, Threads: 4},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("status: %v (gap %.4f, %d nodes)\n", res.Status, res.Gap, res.Nodes)
	fmt.Println("plan, join by join:")
	spec := cost.Spec{Metric: cost.OperatorCost, Op: cost.HashJoin, Params: cost.Params{}.WithDefaults()}
	eval, err := plan.Evaluate(query, res.Plan, spec)
	if err != nil {
		log.Fatal(err)
	}
	outer := query.TableName(res.Plan.Order[0])
	for j, step := range eval.Steps {
		fmt.Printf("  %d: (%s) ⋈[%s] %s   outer %.0f × inner %.0f → %.0f rows\n",
			j, outer, step.Operator, query.TableName(step.Inner),
			step.OuterCard, step.InnerCard, step.ResultCard)
		outer = outer + " ⋈ " + query.TableName(step.Inner)
	}
	fmt.Printf("exact operator cost: %.0f page I/Os\n", res.Cost)
}
