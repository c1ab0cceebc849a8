package core

import (
	"fmt"
	"math"

	"milpjoin/internal/cost"
	"milpjoin/internal/milp"
)

// addOperatorSelection implements Section 5.3 (and, when enabled, the
// Section 5.4 interesting-orders extension): binary jos variables pick one
// operator implementation per join, with actual-cost variables ajc
// linearising jos·potentialCost.
func (e *Encoding) addOperatorSelection() error {
	m := e.Model
	p := e.params
	if e.Opts.Metric != cost.OperatorCost {
		return fmt.Errorf("core: operator selection requires the operator cost metric")
	}

	e.ops = []cost.Operator{cost.HashJoin, cost.SortMergeJoin, cost.BlockNestedLoopJoin}
	numOps := len(e.ops)
	presortedIdx := -1
	if e.Opts.InterestingOrders {
		// A fourth implementation: sort-merge that skips sorting its
		// outer input, applicable only when that input is sorted.
		presortedIdx = numOps
		numOps++
		e.addSortednessVars()
	}

	capVal := e.coMax()
	maxInnerPages, maxInnerSMJ := 0.0, 0.0
	for t := 0; t < e.Query.NumTables(); t++ {
		pg := p.Pages(e.effCard[t])
		if pg > maxInnerPages {
			maxInnerPages = pg
		}
		if c := e.smjInnerCost(t); c > maxInnerSMJ {
			maxInnerSMJ = c
		}
	}
	maxBlocks := math.Ceil(p.Pages(capVal) / p.BufferPages)
	smjOuter := func(card float64) float64 { return cost.SortMergeInput(p.Pages(card)) }

	e.JOS = e.handleLists()
	e.AJC = e.handleLists()
	for j := 0; j < e.J; j++ {
		e.JOS[j] = e.handles(numOps)
		e.AJC[j] = e.handles(numOps)
		for i := 0; i < numOps; i++ {
			name := "presorted-smj"
			if i < len(e.ops) {
				name = e.ops[i].String()
			}
			e.JOS[j][i] = m.AddBinary(0, fmt.Sprintf("jos_%d_%s", j, name))
		}
		e.addRow(e.sum(e.JOS[j]), milp.EQ, 1, fmt.Sprintf("onesel_%d", j))

		for i := 0; i < numOps; i++ {
			var c, bigM float64
			e.cost = e.cost.Reset()
			switch {
			case i == presortedIdx:
				// Pre-sorted SMJ: merge passes only on the outer
				// side; inner still sorts unless the table is
				// stored sorted.
				c = e.outerCost(j, func(card float64) float64 { return p.Pages(card) })
				e.innerCost(j, e.smjInnerCost)
				bigM = p.Pages(capVal) + maxInnerSMJ
				// Applicable only when the outer operand is sorted.
				e.addRow(e.row.Reset().Add(e.JOS[j][i], 1).Add(e.OHP[j], -1), milp.LE, 0,
					fmt.Sprintf("needsorted_%d", j))
			case e.ops[i] == cost.SortMergeJoin && e.Opts.InterestingOrders:
				// Regular SMJ with sort-aware inner costing.
				c = e.outerCost(j, smjOuter)
				e.innerCost(j, e.smjInnerCost)
				bigM = smjOuter(capVal) + maxInnerSMJ
			default:
				c = e.operatorCost(j, e.ops[i])
				switch e.ops[i] {
				case cost.HashJoin:
					bigM = 3 * (p.Pages(capVal) + maxInnerPages)
				case cost.SortMergeJoin:
					bigM = smjOuter(capVal) + maxInnerSMJ
				case cost.BlockNestedLoopJoin:
					bigM = p.Pages(capVal) + maxBlocks*maxInnerPages
				}
			}
			bigM += c + 1

			// ajc ≥ potential − bigM·(1 − jos); ajc ≥ 0. Minimisation
			// presses ajc onto the selected operator's cost and to
			// zero elsewhere.
			ajc := m.AddContinuous(0, bigM, 1, fmt.Sprintf("ajc_%d_%d", j, i))
			e.AJC[j][i] = ajc
			row := e.row.Reset().Add(ajc, 1).Add(e.JOS[j][i], -bigM)
			e.cost.Terms(func(v milp.Var, coef float64) {
				row = row.Add(v, -coef)
			})
			e.addRow(row, milp.GE, c-bigM, fmt.Sprintf("ajcdef_%d_%d", j, i))
		}
	}
	if e.Opts.InterestingOrders {
		e.linkSortedness(1 /* SortMergeJoin in e.ops */, presortedIdx)
	}
	return nil
}

// smjInnerCost prices the inner side of a sort-merge join for table t,
// skipping the sort phase for tables stored in sorted order.
func (e *Encoding) smjInnerCost(t int) float64 {
	p := e.params
	pg := p.Pages(e.effCard[t])
	if e.Query.Tables[t].Sorted {
		return pg
	}
	return cost.SortMergeInput(pg)
}

// addSortednessVars introduces the ohp variables of Section 5.4: whether
// the outer operand of each join is sorted. Join 0's outer operand is a
// base table (sorted iff the table is stored sorted); later operands are
// sorted iff the producing operator was a sort-merge variant.
func (e *Encoding) addSortednessVars() {
	m := e.Model
	e.OHP = e.handles(e.J)
	for j := 0; j < e.J; j++ {
		e.OHP[j] = m.AddBinary(0, fmt.Sprintf("ohp_%d", j))
	}
	expr := e.row.Reset().Add(e.OHP[0], 1)
	for t := 0; t < e.Query.NumTables(); t++ {
		if e.Query.Tables[t].Sorted {
			expr = expr.Add(e.TIO[0][t], -1)
		}
	}
	e.addRow(expr, milp.EQ, 0, "ohpdef_0")
	// ohp_{j} = jos_{j−1,smj} + jos_{j−1,presorted} is installed after
	// the jos variables exist; see linkSortedness.
}

// linkSortedness ties each ohp to the operator that produced the operand.
// Called from addOperatorSelection once jos variables exist for join j−1.
func (e *Encoding) linkSortedness(smjIdx, presortedIdx int) {
	for j := 1; j < e.J; j++ {
		expr := e.row.Reset().Add(e.OHP[j], 1).Add(e.JOS[j-1][smjIdx], -1)
		if presortedIdx >= 0 {
			expr = expr.Add(e.JOS[j-1][presortedIdx], -1)
		}
		e.addRow(expr, milp.EQ, 0, fmt.Sprintf("ohpdef_%d", j))
	}
}

// addExpensivePredicates implements Section 5.1 under the billing rule
// plan.Index states: a predicate with an evaluation cost is billed once, at
// the join that completes it (pco_{p,j} = 1), per tuple of that join's outer
// operand. A join predicate completes where pao turns on; a filter where
// its table enters, as join 0's outer operand or as an inner one.
func (e *Encoding) addExpensivePredicates() {
	m := e.Model
	q := e.Query
	for pi, p := range q.Predicates {
		if p.EvalCostPerTuple <= 0 {
			continue
		}
		if e.PCO == nil {
			e.PCO = e.handleLists()
			for j := range e.PCO {
				e.PCO[j] = e.handles(len(q.Predicates))
			}
		}
		for j := 0; j < e.J; j++ {
			v := m.AddBinary(0, fmt.Sprintf("pco_p%d_%d", pi, j))
			e.PCO[j][pi] = v
			expr, rhs := e.row.Reset().Add(v, 1), 0.0
			if t := p.Tables[0]; len(p.Tables) == 1 {
				// pco_pj = tii_{t,j}, plus tio_{t,0} at join 0.
				expr = expr.Add(e.TII[j][t], -1)
				if j == 0 {
					expr = expr.Add(e.TIO[0][t], -1)
				}
			} else {
				// pco_pj = pao_{p,j+1} − pao_{p,j}, with pao_{p,0} = 0 and
				// pao_{p,J} = 1 (every predicate is evaluated by the end).
				if j+1 < e.J {
					expr = expr.Add(e.PAO[j+1][pi], -1)
				} else {
					rhs = 1
				}
				if j >= 1 {
					expr = expr.Add(e.PAO[j][pi], 1)
				}
			}
			e.addRow(expr, milp.EQ, rhs, fmt.Sprintf("pcodef_p%d_%d", pi, j))
			e.priceOuter(j, v, p.EvalCostPerTuple, fmt.Sprintf("epc_p%d_%d", pi, j))
		}
	}
}
