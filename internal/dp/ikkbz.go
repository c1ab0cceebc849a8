package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// ErrNotAcyclic reports that IKKBZ was given a query whose join graph is
// not a tree (IKKBZ requires acyclic graphs).
var ErrNotAcyclic = errors.New("dp: IKKBZ requires an acyclic join graph")

// IKKBZ computes the optimal left-deep join order *without cross products*
// for a query with an acyclic (tree-shaped) join graph under the C_out
// cost model, in polynomial time — the classical algorithm of Ibaraki &
// Kameda as refined by Krishnamurthy, Boral & Zaniolo. It complements the
// exponential DP baselines: on chain and star queries it finds the same
// plans in O(n² log n).
//
// The returned cost is the plan's exact C_out (final result excluded),
// matching plan.Cost with cost.CoutSpec(). The per-root loop polls the
// context; a canceled context aborts with its error.
func IKKBZ(ctx context.Context, q *qopt.Query) (*plan.Plan, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	n := q.NumTables()

	// Build the join tree: adjacency with edge selectivities. Multiple
	// predicates between the same pair multiply; non-binary predicates
	// are rejected (they do not fit the precedence-graph model).
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = map[int]float64{}
	}
	edges := 0
	for pi, p := range q.Predicates {
		if len(p.Tables) == 1 {
			continue // unary predicates fold into effective cardinality
		}
		if !p.IsBinary() {
			return nil, 0, fmt.Errorf("dp: IKKBZ cannot handle %d-ary predicate %d", len(p.Tables), pi)
		}
		a, b := p.Tables[0], p.Tables[1]
		if _, seen := adj[a][b]; !seen {
			edges++
			adj[a][b] = 1
			adj[b][a] = 1
		}
		adj[a][b] *= p.Sel
		adj[b][a] *= p.Sel
	}
	if edges != n-1 || !connected(adj, n) {
		return nil, 0, fmt.Errorf("%w: %d tables, %d join edges", ErrNotAcyclic, n, edges)
	}

	// Effective cardinalities with unary predicates pushed down.
	card := make([]float64, n)
	for t := range card {
		card[t] = q.Tables[t].Card
	}
	for _, p := range q.Predicates {
		if len(p.Tables) == 1 {
			card[p.Tables[0]] *= p.Sel
		}
	}

	bestCost := math.Inf(1)
	var bestOrder []int
	for root := 0; root < n; root++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("dp: %w", err)
		}
		order := ikkbzForRoot(root, adj, card, n)
		c, err := plan.Cost(q, &plan.Plan{Order: order}, cost.CoutSpec())
		if err == nil && c < bestCost {
			bestCost = c
			bestOrder = order
		}
	}
	return &plan.Plan{Order: bestOrder}, bestCost, nil
}

// module is a (possibly merged) sequence of tables in the precedence tree
// with its aggregated T and C values and ASI rank.
type module struct {
	tables []int
	t      float64 // T(S) = Π s_i·n_i
	c      float64 // C(S) under the ASI recurrence
}

func (m *module) rank() float64 {
	if m.c == 0 {
		return 0
	}
	return (m.t - 1) / m.c
}

// combine concatenates two modules: C(S1 S2) = C(S1) + T(S1)·C(S2).
func combine(a, b *module) *module {
	return &module{
		tables: append(append([]int(nil), a.tables...), b.tables...),
		t:      a.t * b.t,
		c:      a.c + a.t*b.c,
	}
}

// ikkbzForRoot computes the optimal precedence-consistent order rooted at
// root by bottom-up normalization: each subtree reduces to a rank-sorted
// chain of modules, merging modules whenever rank order would violate
// precedence.
func ikkbzForRoot(root int, adj []map[int]float64, card []float64, n int) []int {
	// solve returns the chain of modules for the subtree rooted at v
	// (entered via edge with selectivity sel), excluding v's own module
	// prepended at the front.
	var solve func(v, parent int, sel float64) []*module
	solve = func(v, parent int, sel float64) []*module {
		tv := sel * card[v]
		self := &module{tables: []int{v}, t: tv, c: tv}

		// Merge the children's chains by ascending rank.
		var chains [][]*module
		for w, s := range adj[v] {
			if w != parent {
				chains = append(chains, solve(w, v, s))
			}
		}
		merged := mergeByRank(chains)

		// Normalize: the subtree's own module must precede everything;
		// absorb leading modules whose rank is smaller than the head's.
		chain := append([]*module{self}, merged...)
		return normalize(chain)
	}

	var chain []*module
	for w, s := range adj[root] {
		chain = append(chain, solve(w, root, s)...)
	}
	// Re-sort the root's merged child chains globally and normalize.
	// (solve already normalized each subtree; the top-level merge only
	// needs rank sorting, which normalize preserves.)
	sort.SliceStable(chain, func(a, b int) bool { return chain[a].rank() < chain[b].rank() })
	chain = normalize(chain)

	order := []int{root}
	for _, m := range chain {
		order = append(order, m.tables...)
	}
	return order
}

// mergeByRank merges rank-sorted chains into one rank-sorted chain.
func mergeByRank(chains [][]*module) []*module {
	var all []*module
	for _, c := range chains {
		all = append(all, c...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].rank() < all[b].rank() })
	return all
}

// normalize enforces non-decreasing ranks along the chain by merging
// adjacent out-of-order modules (the precedence constraint: a parent
// module must stay ahead of its descendants, which follow it in the
// chain).
func normalize(chain []*module) []*module {
	out := make([]*module, 0, len(chain))
	for _, m := range chain {
		out = append(out, m)
		for len(out) >= 2 && out[len(out)-2].rank() > out[len(out)-1].rank() {
			merged := combine(out[len(out)-2], out[len(out)-1])
			out = out[:len(out)-2]
			out = append(out, merged)
		}
	}
	return out
}

func connected(adj []map[int]float64, n int) bool {
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}
