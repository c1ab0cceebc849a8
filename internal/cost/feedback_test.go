package cost

import (
	"math"
	"testing"

	"milpjoin/internal/qopt"
)

func feedbackQuery() *qopt.Query {
	return &qopt.Query{
		Tables: []qopt.Table{{Card: 100}, {Card: 100}, {Card: 100}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.01},
			{Tables: []int{1, 2}, Sel: 0.1},
			{Tables: []int{0}, Sel: 0.5},
		},
	}
}

func TestObserveJoinSinglePredicate(t *testing.T) {
	q := feedbackQuery()
	c := NewSelectivityCorrections()
	// 100 × 100 operand rows at sel 0.01 expect 100; measured 1000: the
	// single applied predicate's selectivity scales by 10.
	c.ObserveJoin(q, []int{0}, 100, 100, 1000)
	if got := c.PredSel[0]; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("corrected sel %g, want 0.1", got)
	}
	if c.Len() != 1 {
		t.Errorf("corrections hold %d entries, want 1", c.Len())
	}
}

func TestObserveJoinDistributesOverPredicates(t *testing.T) {
	q := feedbackQuery()
	c := NewSelectivityCorrections()
	// Two predicates applied, expected 100·100·0.01·0.1 = 10, ratio 100:
	// each takes the square root, 10.
	c.ObserveJoin(q, []int{0, 1}, 100, 100, 1000)
	if got := c.PredSel[0]; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("pred 0 corrected to %g, want 0.1", got)
	}
	if got := c.PredSel[1]; math.Abs(got-1.0) > 1e-12 {
		t.Errorf("pred 1 corrected to %g, want 1.0 (clamped)", got)
	}
}

func TestObserveJoinCompounds(t *testing.T) {
	q := feedbackQuery()
	c := NewSelectivityCorrections()
	c.ObserveJoin(q, []int{0}, 100, 100, 1000) // ×10 → 0.1
	// The corrected 0.1 now expects 1000 rows; 2000 doubles it.
	c.ObserveJoin(q, []int{0}, 100, 100, 2000)
	if got := c.PredSel[0]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("compounded sel %g, want 0.2", got)
	}
}

func TestObserveJoinIgnoresCrossProducts(t *testing.T) {
	q := feedbackQuery()
	c := NewSelectivityCorrections()
	c.ObserveJoin(q, nil, 100, 100, 1000)
	if c.Len() != 0 {
		t.Error("cross product produced a correction")
	}
	c.ObserveJoin(q, []int{0}, 0, 100, 0)
	if c.Len() != 0 {
		t.Error("join with an empty operand produced a correction")
	}
}

func TestObserveScan(t *testing.T) {
	c := NewSelectivityCorrections()
	c.ObserveScan([]int{2}, 200, 50)
	if got := c.PredSel[2]; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("scan correction %g, want 0.25", got)
	}
	c2 := NewSelectivityCorrections()
	c2.ObserveScan(nil, 200, 50)
	c2.ObserveScan([]int{1}, 0, 0)
	if c2.Len() != 0 {
		t.Error("degenerate scans produced corrections")
	}
}

func TestApplyLeavesOriginalUntouched(t *testing.T) {
	q := feedbackQuery()
	c := NewSelectivityCorrections()
	c.PredSel[0] = 0.5
	c.PredSel[99] = 0.5 // out of range: ignored
	out := c.Apply(q)
	if out.Predicates[0].Sel != 0.5 {
		t.Errorf("applied sel %g, want 0.5", out.Predicates[0].Sel)
	}
	if out.Predicates[1].Sel != 0.1 {
		t.Errorf("uncorrected sel changed to %g", out.Predicates[1].Sel)
	}
	if q.Predicates[0].Sel != 0.01 {
		t.Error("Apply mutated the input query")
	}
}

func TestClampSel(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0.5, 0.5},
		{2, 1},
		{0, 1e-12},
		{-1, 1e-12},
		{math.NaN(), 1e-12},
	} {
		if got := clampSel(tc.in); got != tc.want {
			t.Errorf("clampSel(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}
