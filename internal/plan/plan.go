// Package plan represents left-deep query plans and prices them exactly
// (without the linear approximations the MILP encoder uses). The exact
// coster is the ground truth that decoded MILP plans and DP plans are
// compared against.
package plan

import (
	"fmt"
	"math"
	"strings"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

// Plan is a left-deep join plan: Order is the permutation of table indices
// in join order. Join j (0-based) joins the running result of
// Order[0..j] with table Order[j+1]. Operators optionally records the join
// operator per join; when nil, the costing Spec's default operator is used.
type Plan struct {
	Order     []int
	Operators []cost.Operator
}

// Validate checks that the plan is a complete left-deep plan for q.
func (p *Plan) Validate(q *qopt.Query) error {
	n := q.NumTables()
	if len(p.Order) != n {
		return fmt.Errorf("plan: order has %d tables, query has %d", len(p.Order), n)
	}
	seen := make([]bool, n)
	for _, t := range p.Order {
		if t < 0 || t >= n {
			return fmt.Errorf("plan: unknown table %d", t)
		}
		if seen[t] {
			return fmt.Errorf("plan: table %d appears twice", t)
		}
		seen[t] = true
	}
	if p.Operators != nil && len(p.Operators) != n-1 {
		return fmt.Errorf("plan: %d operators for %d joins", len(p.Operators), n-1)
	}
	return nil
}

// String renders the join order, e.g. "((T0 ⋈ T2) ⋈ T1)".
func (p *Plan) String() string {
	if len(p.Order) == 0 {
		return "()"
	}
	var sb strings.Builder
	for i := 1; i < len(p.Order); i++ {
		sb.WriteString("(")
	}
	fmt.Fprintf(&sb, "T%d", p.Order[0])
	for i := 1; i < len(p.Order); i++ {
		fmt.Fprintf(&sb, " ⋈ T%d)", p.Order[i])
	}
	return sb.String()
}

// JoinStep records the exact quantities of one join during costing.
type JoinStep struct {
	// Inner is the inner operand table index.
	Inner int
	// Operator is the join operator used.
	Operator cost.Operator
	// OuterCard and InnerCard are exact operand cardinalities.
	OuterCard, InnerCard float64
	// ResultCard is the exact cardinality after applying all newly
	// applicable predicates (and correlation corrections).
	ResultCard float64
	// AppliedPreds lists predicates first applied at this join.
	AppliedPreds []int
	// Cost is this join's cost (excluding Cout accounting).
	Cost float64
}

// Costing is the exact evaluation of a plan.
type Costing struct {
	Steps []JoinStep
	// Total is the plan cost under the chosen Spec.
	Total float64
	// FinalCard is the cardinality of the final result.
	FinalCard float64
}

// Evaluate prices the plan exactly under spec by the rules Index states:
// each join's result cardinality is card(S) of the tables joined so far,
// and its evaluation cost is billed on the outer pipeline; its operands are
// the previous result and the inner table at its raw cardinality.
func Evaluate(q *qopt.Query, p *Plan, spec cost.Spec) (*Costing, error) {
	if err := p.Validate(q); err != nil {
		return nil, err
	}
	params := spec.Params.WithDefaults()
	n := q.NumTables()

	w := NewIndex(q).Walk()
	curCard := w.Add(p.Order[0])

	c := &Costing{}
	for j := 0; j+1 < n; j++ {
		inner := p.Order[j+1]
		outerCard := curCard
		step := JoinStep{
			Inner:     inner,
			OuterCard: outerCard,
			InnerCard: q.Tables[inner].Card,
		}
		resCard := w.Add(inner)
		step.AppliedPreds = w.Done(nil)
		step.Cost = w.Eval(outerCard)
		step.ResultCard = resCard

		op := spec.Op
		if p.Operators != nil {
			op = p.Operators[j]
		}
		step.Operator = op

		switch spec.Metric {
		case cost.Cout:
			// Sum of intermediate result cardinalities; the final
			// result is the same for every complete plan and is
			// excluded, matching the Σ_{j≥1} co_j of Section 4.3.
			if j+2 < n {
				c.Total += resCard
			}
		case cost.OperatorCost:
			pgo := params.Pages(outerCard)
			pgi := params.Pages(step.InnerCard)
			step.Cost += cost.JoinCost(op, pgo, pgi, params)
			c.Total += step.Cost
		default:
			return nil, fmt.Errorf("plan: unknown metric %v", spec.Metric)
		}

		curCard = resCard
		c.Steps = append(c.Steps, step)
	}
	c.FinalCard = curCard
	return c, nil
}

// Cost is a convenience wrapper returning only the total cost.
func Cost(q *qopt.Query, p *Plan, spec cost.Spec) (float64, error) {
	c, err := Evaluate(q, p, spec)
	if err != nil {
		return math.NaN(), err
	}
	return c.Total, nil
}
