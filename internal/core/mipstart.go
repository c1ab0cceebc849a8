package core

import (
	"math"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
)

// AssignmentForPlan constructs a full model-space variable assignment that
// represents the given left-deep plan — the encoding-side inverse of
// Decode. It supports the basic encoding (C_out or any fixed operator), the
// operator-selection / interesting-orders extensions, choosing the cheapest
// applicable operator per join, and evaluation costs, billing each predicate
// at the join that completes it.
//
// The assignment is used as a MIP start: it hands the branch-and-bound
// search an immediate incumbent (for example from the greedy heuristic),
// giving the anytime behaviour a starting point on large queries.
func (e *Encoding) AssignmentForPlan(pl *plan.Plan) ([]float64, error) {
	if err := pl.Validate(e.Query); err != nil {
		return nil, err
	}
	q := e.Query
	n := q.NumTables()
	vals := make([]float64, e.Model.NumVars())

	vals[e.TIO[0][pl.Order[0]]] = 1
	inSet := make([]bool, n)
	inSet[pl.Order[0]] = true
	for j := 0; j < e.J; j++ {
		vals[e.TII[j][pl.Order[j+1]]] = 1
		if j >= 1 {
			for t := 0; t < n; t++ {
				if inSet[t] {
					vals[e.TIO[j][t]] = 1
				}
			}
		}
		inSet[pl.Order[j+1]] = true
	}

	for j := 0; j < e.J; j++ {
		vals[e.CI[j]] = e.effCard[pl.Order[j+1]]
	}

	// approxCard[j] is the ladder-approximated outer cardinality of join
	// j (exact for join 0), shared by the operator-cost assignments.
	approxCard := make([]float64, e.J)
	approxCard[0] = e.effCard[pl.Order[0]]

	for t := range inSet {
		inSet[t] = false
	}
	inSet[pl.Order[0]] = true
	for j := 1; j < e.J; j++ {
		inSet[pl.Order[j]] = true
		lco := 0.0
		for t := 0; t < n; t++ {
			if inSet[t] {
				lco += e.effLogCard(t)
			}
		}
		for _, pi := range e.binPreds {
			ok := true
			for _, t := range q.Predicates[pi].Tables {
				if !inSet[t] {
					ok = false
					break
				}
			}
			if ok {
				vals[e.PAO[j][pi]] = 1
				lco += q.LogSel(pi)
			}
		}
		for gi, g := range q.Correlated {
			all := true
			for _, pi := range g.Predicates {
				if vals[e.PAO[j][pi]] < 0.5 {
					all = false
					break
				}
			}
			if all {
				vals[e.PAG[j][gi]] = 1
				lco += math.Log10(g.CorrectionSel)
			}
		}
		vals[e.LCO[j]] = lco
		approx := 1.0
		for r, th := range e.Thresholds {
			if lco > math.Log10(th) {
				vals[e.CTO[j][r]] = 1
				approx = th
			}
		}
		approxCard[j] = approx
	}

	// Block-nested-loop auxiliaries (present for fixed BNL and whenever
	// operator selection is on): blocks_j from the approximated outer
	// cardinality, z_{j,t} = blocks_j for the selected inner table.
	if e.BLOCKS != nil {
		for j := 0; j < e.J; j++ {
			if e.BLOCKS[j] < 0 {
				continue
			}
			blocks := e.blocksOf(approxCard[j])
			vals[e.BLOCKS[j]] = blocks
			vals[e.BNLZ[j][pl.Order[j+1]]] = blocks
		}
	}

	if e.JOS != nil {
		e.assignOperators(pl, vals, approxCard)
	}
	if e.PCO != nil {
		// A predicate completes at the join that brings in its last table.
		pos := make([]int, n)
		for i, t := range pl.Order {
			pos[t] = i
		}
		for pi, p := range q.Predicates {
			last := 1
			for _, t := range p.Tables {
				last = max(last, pos[t])
			}
			if v := e.PCO[last-1][pi]; v >= 0 {
				vals[v] = 1
			}
		}
	}
	for _, pr := range e.prods {
		vals[pr.u] = vals[pr.x] * vals[pr.b]
	}
	return vals, nil
}

// assignOperators picks the cheapest applicable operator per join (using
// the encoder's own approximated cost formulas) and sets the jos / ajc /
// ohp variables accordingly.
func (e *Encoding) assignOperators(pl *plan.Plan, vals []float64, approxCard []float64) {
	p := e.params
	smjOuter := func(card float64) float64 { return cost.SortMergeInput(p.Pages(card)) }
	numOps := len(e.JOS[0])
	presortedIdx := -1
	if e.Opts.InterestingOrders {
		presortedIdx = numOps - 1
	}

	sorted := e.Query.Tables[pl.Order[0]].Sorted && e.Opts.InterestingOrders
	for j := 0; j < e.J; j++ {
		inner := pl.Order[j+1]
		pgo := p.Pages(approxCard[j])
		pgi := p.Pages(e.effCard[inner])
		smjInner := e.smjInnerCost(inner)
		if !e.Opts.InterestingOrders {
			smjInner = smjOuter(e.effCard[inner]) // sort-unaware inner cost
		}

		costs := make([]float64, numOps)
		costs[0] = 3 * (pgo + pgi)                                        // hash
		costs[1] = smjOuter(approxCard[j]) + smjInner                     // sort-merge
		costs[2] = p.Pages(approxCard[j]) + e.blocksOf(approxCard[j])*pgi // BNL
		best := 0
		for i := 1; i < 3; i++ {
			if costs[i] < costs[best] {
				best = i
			}
		}
		if presortedIdx >= 0 && sorted {
			costs[presortedIdx] = p.Pages(approxCard[j]) + smjInner
			if costs[presortedIdx] < costs[best] {
				best = presortedIdx
			}
		}

		vals[e.JOS[j][best]] = 1
		vals[e.AJC[j][best]] = costs[best]
		if e.OHP != nil {
			if sorted {
				vals[e.OHP[j]] = 1
			}
			sorted = best == 1 || best == presortedIdx
		}
	}
}
