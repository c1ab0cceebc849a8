package decomp

import (
	"context"
	"math"
	"math/bits"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// quotientDPMax bounds the exact DP over partition orderings: 2^P subset
// states stay cheap up to here, and beyond it the greedy ordering takes
// over (still using the same exact incremental coster).
const quotientDPMax = 16

// maxPartitions is the stitcher's hard ceiling: partition sets are
// tracked in 64-bit masks, so the decomposer merges down to at most 64
// partitions before stitching.
const maxPartitions = 64

// stitcher orders fixed partition-internal join orders into one global
// left-deep plan. Its incremental coster is a plan.Walk over the query's
// plan.Index, repositioned at the placed partitions: the cost it minimizes
// is the cost plan.Cost reports for the stitched plan.
type stitcher struct {
	spec   cost.Spec
	params cost.Params
	n      int
	orders [][]int // per partition: global table ids in join order
	sizes  []int
	pages  []float64  // per table: the page count of its raw cardinality
	w      *plan.Walk // over the partitions in at, in descending order
	at     uint64
	placed int // their tables
	buf    []int
}

func newStitcher(q *qopt.Query, spec cost.Spec, orders [][]int) *stitcher {
	st := &stitcher{
		spec:   spec,
		params: spec.Params.WithDefaults(),
		n:      q.NumTables(),
		orders: orders,
		sizes:  make([]int, len(orders)),
		pages:  make([]float64, q.NumTables()),
		buf:    make([]int, 0, q.NumTables()),
	}
	st.w = plan.NewIndex(q).Along(orders).Walk()
	for p, ord := range orders {
		st.sizes[p] = len(ord)
	}
	for t, tb := range q.Tables {
		st.pages[t] = st.params.Pages(tb.Card)
	}
	return st
}

// appendCost walks partition p's internal order appended after the
// partitions in placedMask (whose join has cardinality card, raw while it
// is one table) and returns the added plan cost plus the new running
// cardinality.
func (st *stitcher) appendCost(placedMask uint64, p int, card float64) (float64, float64) {
	w := st.w
	if placedMask != st.at {
		// The walk keeps the partitions above the highest one that
		// changed: the DP's ascending masks mostly change low bits.
		h := uint(64 - bits.LeadingZeros64(placedMask^st.at))
		keep := placedMask >> h << h
		k := 0
		for m := keep; m != 0; m &= m - 1 {
			k += st.sizes[bits.TrailingZeros64(m)]
		}
		st.buf = st.buf[:0]
		for m := placedMask &^ keep; m != 0; {
			hi := 63 - bits.LeadingZeros64(m)
			st.buf = append(st.buf, st.orders[hi]...)
			m &^= 1 << uint(hi)
		}
		w.Seek(k, st.buf, card)
		st.at, st.placed = placedMask, k+len(st.buf)
	} else {
		w.Seek(st.placed, nil, card)
	}
	tables, placed := st.orders[p], st.placed
	if placed == 0 { // the plan's first table
		card, tables, placed = w.Add(tables[0]), tables[1:], 1
	}
	var add float64
	if st.spec.Metric == cost.Cout {
		for _, t := range tables {
			card = w.Add(t)
			if placed++; placed < st.n {
				add += card
			}
		}
		return add, card
	}
	op, params := st.spec.Op, st.params
	for _, t := range tables {
		outer := card
		card = w.Add(t)
		add += w.Eval(outer) + cost.JoinCost(op, params.Pages(outer), st.pages[t], params)
	}
	return add, card
}

// orderDP finds the exact-cost-minimal partition ordering by DP over
// partition subsets (cardinality per subset is order-independent, so the
// state is just the mask). Returns ok=false when the context ends
// mid-search; the caller falls back to orderGreedy.
func (st *stitcher) orderDP(ctx context.Context) ([]int, bool) {
	P := len(st.orders)
	full := uint64(1)<<uint(P) - 1
	costs := make([]float64, full+1)
	cards := make([]float64, full+1)
	parent := make([]int8, full+1)
	for m := uint64(1); m <= full; m++ {
		costs[m] = math.Inf(1)
		parent[m] = -1
	}
	checkEvery := 0
	for mask := uint64(0); mask < full; mask++ {
		if costs[mask] == math.Inf(1) && mask != 0 {
			continue
		}
		if checkEvery++; checkEvery&1023 == 0 && ctx.Err() != nil {
			return nil, false
		}
		for p := 0; p < P; p++ {
			bit := uint64(1) << uint(p)
			if mask&bit != 0 {
				continue
			}
			add, ncard := st.appendCost(mask, p, cards[mask])
			nm := mask | bit
			if nc := costs[mask] + add; nc < costs[nm] {
				costs[nm] = nc
				cards[nm] = ncard
				parent[nm] = int8(p)
			}
		}
	}
	order := make([]int, 0, P)
	for m := full; m != 0; {
		p := int(parent[m])
		if p < 0 {
			// Every path overflowed to +Inf, so no parent chain exists;
			// the greedy fallback still produces a deterministic order.
			return nil, false
		}
		order = append(order, p)
		m &^= uint64(1) << uint(p)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, true
}

// orderGreedy picks, at every step, the unplaced partition with the
// cheapest exact incremental cost (ties on the lower index) — the
// fallback when the quotient is too large or the DP ran out of budget.
func (st *stitcher) orderGreedy() []int {
	P := len(st.orders)
	var (
		mask  uint64
		card  float64
		order []int
	)
	for len(order) < P {
		best, bestAdd, bestCard := -1, math.Inf(1), 0.0
		for p := 0; p < P; p++ {
			if mask&(uint64(1)<<uint(p)) != 0 {
				continue
			}
			add, ncard := st.appendCost(mask, p, card)
			// best == -1 keeps the first candidate even when every
			// appended cost has overflowed to +Inf, where no strict
			// comparison would ever pick one.
			if best == -1 || add < bestAdd {
				best, bestAdd, bestCard = p, add, ncard
			}
		}
		order = append(order, best)
		mask |= 1 << uint(best)
		card = bestCard
	}
	return order
}

// concat builds the global join order for a partition ordering.
func (st *stitcher) concat(partOrder []int) []int {
	out := make([]int, 0, st.n)
	for _, p := range partOrder {
		out = append(out, st.orders[p]...)
	}
	return out
}
