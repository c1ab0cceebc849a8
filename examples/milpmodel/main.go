// The MILP solver as a general-purpose library: the substrate built to
// replace Gurobi is a complete mixed integer programming solver in its own
// right. This example solves a 0/1 knapsack and an assignment problem with
// the same modelling API the join-ordering encoder uses, compiled to
// computational form and handed to branch and bound.
//
//	go run ./examples/milpmodel
package main

import (
	"context"
	"fmt"
	"log"

	"milpjoin/internal/bb"
	"milpjoin/internal/milp"
)

func main() {
	knapsack()
	assignment()
}

// solve runs branch and bound on the compiled model and maps the incumbent
// back to model space.
func solve(m *milp.Model) (bb.Status, *milp.Solution) {
	comp := m.Compile()
	res, err := bb.Solve(context.Background(), comp, bb.Params{Threads: 2})
	if err != nil {
		log.Fatal(err)
	}
	if !res.HasIncumbent {
		log.Fatalf("%s: %v without a solution", m.Name, res.Status)
	}
	vals := comp.Unscale(res.X[:m.NumVars()])
	return res.Status, &milp.Solution{Values: vals, Obj: m.EvalObjective(vals)}
}

func knapsack() {
	// max Σ value·x s.t. Σ weight·x ≤ 26 — minimize the negated values.
	values := []float64{12, 7, 11, 8, 9, 14, 5}
	weights := []float64{8, 5, 7, 6, 4, 10, 3}
	m := milp.NewModel("knapsack")
	capacity := milp.LinExpr{}
	vars := make([]milp.Var, len(values))
	for i := range values {
		vars[i] = m.AddBinary(-values[i], fmt.Sprintf("item%d", i))
		capacity = capacity.Add(vars[i], weights[i])
	}
	m.AddConstr(capacity, milp.LE, 26, "capacity")

	status, sol := solve(m)
	fmt.Printf("knapsack: %v, total value %.0f, picked:", status, -sol.Obj)
	for i, v := range vars {
		if sol.Value(v) > 0.5 {
			fmt.Printf(" item%d", i)
		}
	}
	fmt.Println()
}

func assignment() {
	// Assign 4 workers to 4 tasks at minimal total cost.
	costs := [][]float64{
		{9, 2, 7, 8},
		{6, 4, 3, 7},
		{5, 8, 1, 8},
		{7, 6, 9, 4},
	}
	n := len(costs)
	m := milp.NewModel("assignment")
	x := make([][]milp.Var, n)
	for w := range x {
		x[w] = make([]milp.Var, n)
		for t := range x[w] {
			x[w][t] = m.AddBinary(costs[w][t], fmt.Sprintf("x_%d_%d", w, t))
		}
	}
	for w := 0; w < n; w++ {
		m.AddConstr(milp.Sum(x[w]...), milp.EQ, 1, fmt.Sprintf("worker%d", w))
	}
	for t := 0; t < n; t++ {
		col := milp.LinExpr{}
		for w := 0; w < n; w++ {
			col = col.Add(x[w][t], 1)
		}
		m.AddConstr(col, milp.EQ, 1, fmt.Sprintf("task%d", t))
	}

	status, sol := solve(m)
	fmt.Printf("assignment: %v, total cost %.0f\n", status, sol.Obj)
	for w := 0; w < n; w++ {
		for t := 0; t < n; t++ {
			if sol.Value(x[w][t]) > 0.5 {
				fmt.Printf("  worker %d → task %d (cost %.0f)\n", w, t, costs[w][t])
			}
		}
	}
}
