package joinorder_test

import (
	"testing"
	"time"

	"milpjoin/joinorder"
)

// TestBudgetScaleSplit: divisible resources scale with floors; per-solve
// qualities pass through.
func TestBudgetScaleSplit(t *testing.T) {
	b := joinorder.Budget{TimeLimit: time.Second, GapTol: 1e-3, MaxNodes: 100, Threads: 4}
	half := b.Scale(0.5)
	if half.TimeLimit != 500*time.Millisecond || half.MaxNodes != 50 {
		t.Errorf("Scale(0.5) = %+v", half)
	}
	if half.GapTol != b.GapTol || half.Threads != b.Threads {
		t.Errorf("Scale touched per-solve qualities: %+v", half)
	}
	// A tiny fraction of a set budget floors at 1ms / 1 node instead of
	// becoming zero ("unlimited").
	tiny := b.Scale(1e-9)
	if tiny.TimeLimit != time.Millisecond || tiny.MaxNodes != 1 {
		t.Errorf("Scale(1e-9) = %+v, want 1ms / 1 node floors", tiny)
	}
	// Unset resources stay unset: zero must not become a 1ms cap.
	unset := joinorder.Budget{GapTol: 1e-3}.Scale(0.25)
	if unset.TimeLimit != 0 || unset.MaxNodes != 0 {
		t.Errorf("Scale set unset resources: %+v", unset)
	}
	if got := b.Split(4).TimeLimit; got != 250*time.Millisecond {
		t.Errorf("Split(4).TimeLimit = %v", got)
	}
	if got := b.Split(1); got != b {
		t.Errorf("Split(1) = %+v, want unchanged", got)
	}
}
