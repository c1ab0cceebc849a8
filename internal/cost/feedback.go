package cost

import (
	"math"

	"milpjoin/internal/qopt"
)

// SelectivityCorrections accumulates measured-cardinality feedback as
// corrected predicate selectivities, keyed by predicate index. It is the
// value the executor's trace is distilled into and the optimizer's input
// for re-optimization: Apply produces the corrected query.
type SelectivityCorrections struct {
	// PredSel maps predicate index to its corrected selectivity.
	PredSel map[int]float64
}

// NewSelectivityCorrections returns an empty correction set.
func NewSelectivityCorrections() SelectivityCorrections {
	return SelectivityCorrections{PredSel: map[int]float64{}}
}

// Len returns the number of corrected predicates.
func (c SelectivityCorrections) Len() int { return len(c.PredSel) }

// ObserveJoin folds one executed join into the corrections. The expected
// output is the product of the measured operand sizes and the current
// selectivities (corrected where a correction exists, q's otherwise) of
// the predicates first applied at that join — so only the join's own
// selectivity error is attributed, never upstream cardinality error. The
// measured-vs-expected ratio is split over those predicates by its k-th
// root (independence across them, the assumption the estimates make) and
// the results are clamped into (0, 1]. Cross products and joins with an
// empty operand carry no selectivity signal and are ignored.
func (c SelectivityCorrections) ObserveJoin(q *qopt.Query, appliedPreds []int, leftRows, rightRows int, measured float64) {
	if len(appliedPreds) == 0 || leftRows <= 0 || rightRows <= 0 {
		return
	}
	expected := float64(leftRows) * float64(rightRows)
	for _, pi := range appliedPreds {
		expected *= math.Max(c.Sel(q, pi), 1e-12)
	}
	factor := math.Pow(math.Max(measured, 1e-12)/math.Max(expected, 1e-12), 1/float64(len(appliedPreds)))
	for _, pi := range appliedPreds {
		c.PredSel[pi] = clampSel(c.Sel(q, pi) * factor)
	}
}

// Sel returns predicate pi's current selectivity: its correction if one
// was learned, q's estimate otherwise.
func (c SelectivityCorrections) Sel(q *qopt.Query, pi int) float64 {
	if s, ok := c.PredSel[pi]; ok {
		return s
	}
	return q.Predicates[pi].Sel
}

// ObserveScan folds one executed scan into the corrections: the measured
// post-filter fraction replaces the unary predicates' joint selectivity
// (distributed by the k-th root, like ObserveJoin).
func (c SelectivityCorrections) ObserveScan(appliedPreds []int, inRows, outRows int) {
	if len(appliedPreds) == 0 || inRows <= 0 {
		return
	}
	frac := math.Max(float64(outRows), 1) / float64(inRows)
	sel := math.Pow(frac, 1/float64(len(appliedPreds)))
	for _, pi := range appliedPreds {
		c.PredSel[pi] = clampSel(sel)
	}
}

// Apply returns a copy of q with the corrected selectivities substituted.
// The original query is not modified.
func (c SelectivityCorrections) Apply(q *qopt.Query) *qopt.Query {
	out := *q
	out.Predicates = append([]qopt.Predicate(nil), q.Predicates...)
	for pi, sel := range c.PredSel {
		if pi >= 0 && pi < len(out.Predicates) {
			out.Predicates[pi].Sel = sel
		}
	}
	return &out
}

func clampSel(s float64) float64 {
	if !(s > 0) || math.IsNaN(s) {
		return 1e-12
	}
	if s > 1 {
		return 1
	}
	return s
}
