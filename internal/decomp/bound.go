package decomp

import (
	"sort"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

// lowerBound computes a finite, provably valid lower bound on the cost of
// ANY complete join tree (bushy included) — the guarantee the hybrid
// strategy reports when the query is too large for an exact or MILP proof.
//
// C_out: every join tree over n >= 3 leaves counts n-2 intermediate
// results (all internal nodes except the root), and each intermediate's
// cardinality is bounded below by the "optimistic subset" relaxation: let
// v_i = card_i · Π sel_p over every predicate p incident to table i. For
// any table set S with |S| >= 2, card(S) >= Π_{i in S} v_i (each inside
// predicate is applied at most twice, each cut predicate at most its
// arity — selectivities are <= 1 so extra applications only shrink the
// product). Minimizing over S gives v(1)·v(2)·Π_{i>=3} min(1, v(i)) with
// v sorted ascending, times every shrinking (< 1) correlation
// correction. The bound is weak but finite and exact-space valid.
//
// Operator cost: every one of the n-1 joins moves at least one page per
// operand, so the total is at least (n-1) times the cheapest possible
// single join of Spec.Op.
func lowerBound(q *qopt.Query, spec cost.Spec) float64 {
	n := q.NumTables()
	if spec.Metric == cost.OperatorCost {
		return float64(n-1) * cost.JoinCost(spec.Op, 1, 1, spec.Params.WithDefaults())
	}
	// C_out below.
	if n < 3 {
		return 0 // only the excluded final result exists
	}
	v := make([]float64, n)
	for i, t := range q.Tables {
		v[i] = t.Card
	}
	for _, p := range q.Predicates {
		for _, t := range p.Tables {
			v[t] *= p.Sel
		}
	}
	sort.Float64s(v)
	lb := v[0] * v[1]
	for _, x := range v[2:] {
		if x < 1 {
			lb *= x
		}
	}
	for _, g := range q.Correlated {
		if g.CorrectionSel < 1 {
			lb *= g.CorrectionSel
		}
	}
	return float64(n-2) * lb
}
