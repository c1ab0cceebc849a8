package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// maxBushyTables bounds the bushy DP: its split enumeration is Θ(3^n).
const maxBushyTables = 20

// ErrNoneBetter reports that the bushy search proved no bushy plan beats
// the caller-supplied cutoff: every partial plan was pruned against it, so
// the incumbent the cutoff tracks is optimal over the bushy plan space.
// Portfolio callers treat this as a proof of optimality for the racing
// incumbent rather than a failure.
var ErrNoneBetter = errors.New("dp: no plan better than cutoff")

// BushyOptions carry the anytime hook of the layered bushy search.
type BushyOptions struct {
	// Cutoff, when non-nil, returns the exact cost of the best plan known
	// so far from outside the search (for example a racing portfolio
	// peer's incumbent). Layers re-read it and prune every subset whose
	// best partial cost already reaches it: join costs are monotone
	// non-negative, so no completion of a pruned subset can beat the
	// cutoff. When the full set is pruned away entirely the search
	// returns ErrNoneBetter — a proof that the cutoff incumbent is
	// optimal. +Inf (or a nil hook) disables pruning.
	Cutoff func() float64
}

// OptimizeBushy finds the cost-minimal bushy join tree (cross products
// allowed) — the package's one exact bushy enumerator, and the measure of
// what the left-deep restriction costs. It is the O(3^n) subset DP of
// Moerkotte & Neumann that the paper cites, not DPconv's fast subset
// convolution (arXiv:2409.08013). Subsets are processed in layers of
// increasing cardinality, splits are canonicalised to the half containing the
// subset's lowest table so each unordered partition is priced once (both
// orientations are priced under asymmetric operator costs), and an
// optional live cutoff prunes dominated layers — giving the exact DP an
// anytime interface. Subsets are priced on package plan's cardinality
// lattice, as plan.TreeCost prices trees: a split's evaluation cost is the
// lattice's Eval, billed on whichever half is the left operand. The subset
// loop polls the context.
func OptimizeBushy(ctx context.Context, q *qopt.Query, spec cost.Spec, opts BushyOptions) (*plan.Tree, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("dp: %w", err)
	}
	n := q.NumTables()
	if n > maxBushyTables {
		return nil, 0, fmt.Errorf("%w: %d tables (bushy limit %d)", ErrTooLarge, n, maxBushyTables)
	}
	params := spec.Params.WithDefaults()
	lat := plan.NewIndex(q).Lattice(nil, allTables(n), spec)

	size := 1 << n
	best := make([]float64, size)
	split := make([]int32, size) // left subset of the best split; 0 for leaves
	for s := range best {
		best[s] = math.Inf(1)
	}
	for t := 0; t < n; t++ {
		best[1<<t] = 0
	}
	// pages[m] is subset m's operand page count under operator cost.
	var pages []float64
	if spec.Metric == cost.OperatorCost {
		pages = make([]float64, size)
		for m := range pages {
			pages[m] = params.Pages(lat.Operand(uint32(m)))
		}
	}

	full := size - 1
	pruned := false
	check := 0
	for k := 2; k <= n; k++ {
		// Re-read the cutoff once per layer: tight enough to benefit
		// from racing incumbents, cheap enough to keep the inner loop
		// branch-free of callbacks. The epsilon keeps a plan that ties
		// the cutoff prunable — equality is not an improvement.
		cut := math.Inf(1)
		if opts.Cutoff != nil {
			if c := opts.Cutoff(); c < math.Inf(1) {
				cut = c * (1 + 1e-9)
			}
		}
		for s := (1 << k) - 1; s < size; s = nextSubsetSameCount(s) {
			if check++; check&0x3FFF == 0 {
				if err := ctx.Err(); err != nil {
					return nil, 0, fmt.Errorf("dp: %w", err)
				}
			}
			bit := s & -s
			prev := s &^ bit

			// Canonical splits: the half containing the lowest table.
			// Each unordered partition is enumerated exactly once; under
			// asymmetric operator costs both orientations are priced.
			coutCost := lat.Result(uint32(s))
			for low := (prev - 1) & prev; ; low = (low - 1) & prev {
				sub := low | bit
				rest := s ^ sub // never empty: low is a proper subset of prev
				if math.IsInf(best[sub], 1) || math.IsInf(best[rest], 1) {
					if low == 0 {
						break
					}
					continue
				}
				base := best[sub] + best[rest]
				switch spec.Metric {
				case cost.Cout:
					if total := base + coutCost; total < best[s] {
						best[s] = total
						split[s] = int32(sub)
					}
				case cost.OperatorCost:
					pgSub, pgRest := pages[sub], pages[rest]
					fwd := lat.Eval(uint32(sub), uint32(rest)) + cost.JoinCost(spec.Op, pgSub, pgRest, params)
					if total := base + fwd; total < best[s] {
						best[s] = total
						split[s] = int32(sub)
					}
					rev := lat.Eval(uint32(rest), uint32(sub)) + cost.JoinCost(spec.Op, pgRest, pgSub, params)
					if total := base + rev; total < best[s] {
						best[s] = total
						split[s] = int32(rest)
					}
				}
				if low == 0 {
					break
				}
			}
			if best[s] >= cut {
				best[s] = math.Inf(1)
				pruned = true
			}
		}
	}

	if math.IsInf(best[full], 1) {
		if pruned {
			return nil, 0, ErrNoneBetter
		}
		return nil, 0, fmt.Errorf("dp: conv search found no plan (internal error)")
	}

	var build func(s int) *plan.Tree
	build = func(s int) *plan.Tree {
		if bits.OnesCount(uint(s)) == 1 {
			return plan.Leaf(bits.TrailingZeros(uint(s)))
		}
		sub := int(split[s])
		return plan.Join(build(sub), build(s^sub))
	}
	tree := build(full)
	return tree, best[full], nil
}

// nextSubsetSameCount returns the next-larger integer with the same
// popcount (Gosper's hack) — the layer iterator of the bushy enumeration.
func nextSubsetSameCount(s int) int {
	c := s & -s
	r := s + c
	return (((r ^ s) >> 2) / c) | r
}
