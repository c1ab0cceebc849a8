package decomp

import (
	"context"
	"math"
	"math/bits"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// seamWindow is the width of the re-optimized windows: 2^w subset states
// per window keeps each window solve in the tens of microseconds.
const seamWindow = 10

// seamOptimize polishes a stitched global join order by exact DP over
// sliding windows: the tables inside a window are reordered optimally
// while everything outside stays fixed. Because a left-deep plan's cost
// at every position is a function of the table SET placed so far, the
// prefix and suffix costs are invariant under any permutation of the
// window, so minimizing the window's own contribution minimizes the plan.
//
// The first pass centers windows on the partition seams (boundaries);
// later passes slide across the whole order until a pass finds nothing or
// the context ends. onImproved (optional) fires with the full updated
// order after every improving window. Returns the final order and whether
// any improvement was found.
func seamOptimize(ctx context.Context, q *qopt.Query, spec cost.Spec, order []int, boundaries []int, onImproved func([]int)) ([]int, bool) {
	n := len(order)
	w := seamWindow
	if w > n {
		w = n
	}
	if w < 2 {
		return order, false
	}
	ix := plan.NewIndex(q)
	improvedAny := false
	expired := func() bool {
		return ctx.Err() != nil
	}

	runWindow := func(s int) bool {
		if expired() {
			return false
		}
		return improveWindow(ix, spec, order, s, w)
	}

	// Seam-centered pass first: cut-edge predicates concentrate there.
	for _, b := range boundaries {
		s := b - w/2
		if s < 0 {
			s = 0
		}
		if s > n-w {
			s = n - w
		}
		if runWindow(s) {
			improvedAny = true
			if onImproved != nil {
				onImproved(order)
			}
		}
		if expired() {
			return order, improvedAny
		}
	}
	// Sliding passes until a full pass is dry.
	step := w / 2
	if step < 1 {
		step = 1
	}
	for {
		passImproved := false
		for s := 0; s <= n-w; s += step {
			if runWindow(s) {
				passImproved = true
				improvedAny = true
				if onImproved != nil {
					onImproved(order)
				}
			}
			if expired() {
				return order, improvedAny
			}
		}
		if !passImproved {
			return order, improvedAny
		}
	}
}

// improveWindow re-optimizes order[s:s+w] in place; reports improvement.
// The window's subsets are priced on plan's cardinality lattice over the
// fixed prefix order[:s], the way plan.Evaluate prices each join.
func improveWindow(ix *plan.Index, spec cost.Spec, order []int, s, w int) bool {
	win := order[s : s+w]
	lat := ix.Lattice(order[:s], win, spec)
	op := spec.Op
	curCost := 0.0
	var placed uint32
	for j := range win {
		curCost += lat.Step(placed, j, op)
		placed |= 1 << uint(j)
	}

	full := uint32(1)<<uint(w) - 1
	best := make([]float64, full+1)
	parent := make([]int8, full+1)
	for sub := uint32(1); sub <= full; sub++ {
		best[sub] = math.Inf(1)
		for m := sub; m != 0; m &= m - 1 {
			t := bits.TrailingZeros32(m)
			prev := sub &^ (1 << uint(t))
			if c := best[prev] + lat.Step(prev, t, op); c < best[sub] {
				best[sub] = c
				parent[sub] = int8(t)
			}
		}
	}
	if !(best[full] < curCost && curCost-best[full] > 1e-9*math.Max(1, math.Abs(curCost))) {
		return false
	}
	perm := make([]int, 0, w)
	for sub := full; sub != 0; {
		t := int(parent[sub])
		perm = append(perm, t)
		sub &^= 1 << uint(t)
	}
	tables := make([]int, w)
	for i, j := 0, len(perm)-1; j >= 0; i, j = i+1, j-1 {
		tables[i] = win[perm[j]]
	}
	copy(order[s:s+w], tables)
	return true
}
