package bb

import (
	"container/heap"

	"milpjoin/internal/simplex"
)

// boundChange tightens one bound of one variable relative to the parent.
type boundChange struct {
	varIdx  int
	isLower bool
	value   float64
}

// node is a branch-and-bound subproblem, represented as a chain of bound
// changes back to the root plus a warm-start basis from the parent's LP.
type node struct {
	parent *node
	change boundChange // meaningless at the root (parent == nil)
	depth  int
	bound  float64 // inherited LP bound (lower bound on this subtree)
	basis  *pairBasis

	// branching bookkeeping for pseudocost updates: the fractionality
	// consumed by this node's bound change.
	frac        float64
	parentBound float64
}

// pairBasis is the warm-start basis the two children of one branching share:
// the final basis of their parent's LP, copied once. users counts the
// children that may still start from it and is guarded by searcher.mu; the
// searcher reuses the storage once it reaches zero (see searcher.release).
type pairBasis struct {
	simplex.Basis
	users int
}

// warm returns the basis as simplex.Solve takes it; nil (the root, or a
// node retrying cold) stays nil.
func (b *pairBasis) warm() *simplex.Basis {
	if b == nil {
		return nil
	}
	return &b.Basis
}

// applyBounds tightens l and u in place by every bound change on the chain
// from the node back to the root. Each change is a max on a lower or a min
// on an upper bound, so the order of the walk does not matter and the chain
// need not be collected first.
func (nd *node) applyBounds(l, u []float64) {
	for cur := nd; cur.parent != nil; cur = cur.parent {
		ch := cur.change
		if ch.isLower {
			if ch.value > l[ch.varIdx] {
				l[ch.varIdx] = ch.value
			}
		} else {
			if ch.value < u[ch.varIdx] {
				u[ch.varIdx] = ch.value
			}
		}
	}
}

// nodeHeap is a best-first priority queue ordered by ascending LP bound;
// ties break toward deeper nodes (closer to integer feasibility).
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].depth > h[j].depth
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return nd
}

var _ heap.Interface = (*nodeHeap)(nil)
