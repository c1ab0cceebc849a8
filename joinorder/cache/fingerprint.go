// Package cache provides a concurrent, bounded plan cache in front of the
// public joinorder API: structurally identical queries are recognized by a
// graph-isomorphism-safe fingerprint and served from memory, concurrent
// identical requests coalesce into one solve (singleflight), and queries
// that merely share a topology with a cached one reuse the cached plan as a
// MIP start so branch and bound begins with a finite upper bound.
//
// The fingerprint is computed by canonicalizing the join graph: tables are
// vertices, binary join predicates are weighted edges, and a canonical
// labeling is derived by iterated color refinement with bounded
// individualization backtracking. Relabeling the query's relations never
// changes the fingerprint, so A⋈B⋈C and a permuted C⋈B⋈A hit the same
// cache entry — and the canonical permutation lets a plan cached under one
// labeling be translated into any isomorphic query's labeling.
package cache

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"

	"milpjoin/joinorder"
)

// ErrUncacheable reports a query outside the fingerprint's reach: fewer
// than two tables, non-binary predicates, correlated groups, or a join graph so symmetric that canonicalization exceeds its
// search budget. Uncacheable queries bypass the cache and are solved
// directly; correctness never depends on cacheability.
var ErrUncacheable = errors.New("cache: query not cacheable")

// Mode selects what the fingerprint distinguishes.
type Mode int

const (
	// Exact fingerprints distinguish cardinalities and selectivities
	// bit-for-bit: equal fingerprints mean the queries are isomorphic
	// with identical statistics, so a cached plan, its cost, and its
	// optimality proof all transfer.
	Exact Mode = iota
	// Shape fingerprints reduce cardinalities and selectivities to their
	// ranks (order statistics) within the query: equal fingerprints mean
	// the queries share a topology and the same relative ordering of
	// statistics — the "same query, perturbed cardinalities" case — so a
	// cached plan transfers as a warm start but not as an answer.
	Shape
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Shape:
		return "shape"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Canonical is the canonicalization of a query: a fingerprint key that is
// invariant under relabeling of the query's tables, plus the permutation
// that maps the query's table indices to canonical positions. Two queries
// with equal keys are isomorphic (for the mode's notion of equality), and
// composing one query's Perm with the other's inverse yields the
// isomorphism — which is how cached plans are translated between label
// spaces.
type Canonical struct {
	// Key is the hex digest of the canonical encoding. Equal keys imply
	// isomorphic queries; the digest is collision-resistant (SHA-256).
	Key string
	// Perm maps an original table index to its canonical position.
	Perm []int
	// inv maps a canonical position back to the original table index.
	inv []int
}

// ToCanonical translates a join order over original table indices into
// canonical label space.
func (c *Canonical) ToCanonical(order []int) []int {
	out := make([]int, len(order))
	for i, t := range order {
		out[i] = c.Perm[t]
	}
	return out
}

// FromCanonical translates a join order in canonical label space back to
// the query's original table indices.
func (c *Canonical) FromCanonical(order []int) []int {
	out := make([]int, len(order))
	for i, t := range order {
		out[i] = c.inv[t]
	}
	return out
}

// Canonicalization search budgets. Refinement discretizes almost every
// real query (statistics are floats; exact ties are rare), so the
// backtracking search over tied vertices is bounded: fully symmetric cells
// (interchangeable tables, e.g. the identical leaves of a synthetic star)
// cost one branch, and anything beyond the budget is declared uncacheable
// rather than risking super-polynomial work. The budget trips on the size
// of the label-invariant search tree, so whether a query is cacheable is
// itself invariant under relabeling.
const (
	maxCanonLeaves = 2048
	maxCanonNodes  = 1 << 14
)

var errCanonBudget = errors.New("cache: canonicalization budget exceeded")

// Canonicalize computes the canonical form of the query's join graph under
// the given mode. It returns ErrUncacheable for queries the fingerprint
// cannot safely represent.
func Canonicalize(q *joinorder.Query, mode Mode) (*Canonical, error) {
	g, err := buildGraph(q, mode)
	if err != nil {
		return nil, err
	}
	s := &canonSearch{g: g}
	if err := s.search(g.initialColors()); err != nil {
		if errors.Is(err, errCanonBudget) {
			return nil, fmt.Errorf("%w: join graph too symmetric (canonicalization budget exceeded)", ErrUncacheable)
		}
		return nil, err
	}
	sum := sha256.Sum256(s.bestEnc)
	c := &Canonical{
		Key:  hex.EncodeToString(sum[:]),
		Perm: s.bestPerm,
		inv:  make([]int, len(s.bestPerm)),
	}
	for orig, pos := range c.Perm {
		c.inv[pos] = orig
	}
	return c, nil
}

// pairWeight is the invariant of one predicate on a table pair: selectivity
// and evaluation cost, as raw float bits (Exact) or ranks (Shape).
type pairWeight struct{ sel, eval uint64 }

// pairPred is one binary predicate of the graph: its table pair (a < b)
// and its weight.
type pairPred struct {
	a, b int
	w    pairWeight
}

// pairCell is one entry of the adjacency matrix: the weight hash of the
// pair's predicate multiset (0 when there is no edge) and where that
// multiset sits in graph.preds.
type pairCell struct {
	h       uint64
	lo, cnt int32
}

// graph is the abstract weighted join graph being canonicalized.
type graph struct {
	n    int
	vert []uint64    // per-vertex invariant hash (cardinality, sorted flag)
	vdat [][2]uint64 // per-vertex invariant data, emitted into encodings
	adj  [][]pairCell
	// preds holds the predicates sorted by pair and then by weight, so the
	// parallel predicates of one pair are adjacent and in an order that
	// does not depend on the labeling.
	preds []pairPred
}

// buildGraph validates cacheability and assembles the invariant-weighted
// graph for the mode.
func buildGraph(q *joinorder.Query, mode Mode) (*graph, error) {
	n := len(q.Tables)
	if n < 2 {
		return nil, fmt.Errorf("%w: fewer than two tables", ErrUncacheable)
	}
	if len(q.Correlated) > 0 {
		return nil, fmt.Errorf("%w: correlated predicate groups", ErrUncacheable)
	}
	for i := range q.Predicates {
		if len(q.Predicates[i].Tables) != 2 {
			return nil, fmt.Errorf("%w: predicate %d is not binary", ErrUncacheable, i)
		}
	}

	// Invariant encodings of the statistics: raw float bits for Exact,
	// ranks over the query's own value sets for Shape.
	card := func(v float64) uint64 { return math.Float64bits(v) }
	sel := card
	eval := card
	if mode == Shape {
		cards := make([]float64, 0, n)
		for i := range q.Tables {
			cards = append(cards, q.Tables[i].Card)
		}
		sels := make([]float64, 0, len(q.Predicates))
		evals := make([]float64, 0, len(q.Predicates))
		for i := range q.Predicates {
			sels = append(sels, q.Predicates[i].Sel)
			evals = append(evals, q.Predicates[i].EvalCostPerTuple)
		}
		card = ranker(cards)
		sel = ranker(sels)
		eval = ranker(evals)
	}

	g := &graph{
		n:     n,
		vert:  make([]uint64, n),
		vdat:  make([][2]uint64, n),
		adj:   make([][]pairCell, n),
		preds: make([]pairPred, len(q.Predicates)),
	}
	for i := range q.Tables {
		var sorted uint64
		if q.Tables[i].Sorted {
			sorted = 1
		}
		g.vdat[i] = [2]uint64{card(q.Tables[i].Card), sorted}
		g.vert[i] = fnvMix(fnvOffset, g.vdat[i][0], g.vdat[i][1])
	}
	for i := range q.Predicates {
		p := &q.Predicates[i]
		a, b := p.Tables[0], p.Tables[1]
		if a > b {
			a, b = b, a
		}
		g.preds[i] = pairPred{a, b, pairWeight{sel: sel(p.Sel), eval: eval(p.EvalCostPerTuple)}}
	}
	slices.SortFunc(g.preds, func(x, y pairPred) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b),
			cmp.Compare(x.w.sel, y.w.sel), cmp.Compare(x.w.eval, y.w.eval))
	})
	matrix := make([]pairCell, n*n)
	for v := range g.adj {
		g.adj[v] = matrix[v*n : (v+1)*n : (v+1)*n]
	}
	for lo := 0; lo < len(g.preds); {
		a, b := g.preds[lo].a, g.preds[lo].b
		hi := lo
		h := uint64(fnvOffset)
		for ; hi < len(g.preds) && g.preds[hi].a == a && g.preds[hi].b == b; hi++ {
			h = fnvMix(h, g.preds[hi].w.sel, g.preds[hi].w.eval)
		}
		h = fnvMix(h, uint64(hi-lo), 0x9e3779b97f4a7c15)
		if h == 0 {
			h = 1 // reserve 0 for "no edge"
		}
		g.adj[a][b] = pairCell{h, int32(lo), int32(hi - lo)}
		g.adj[b][a] = g.adj[a][b]
		lo = hi
	}
	return g, nil
}

// ranker maps each float value to its rank among the distinct values of
// vals (0 for the smallest). Queries that differ only by a monotone
// perturbation of their statistics receive identical ranks.
func ranker(vals []float64) func(float64) uint64 {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	rank := make(map[uint64]uint64, len(sorted))
	for _, v := range sorted {
		b := math.Float64bits(v)
		if _, ok := rank[b]; !ok {
			rank[b] = uint64(len(rank))
		}
	}
	return func(v float64) uint64 { return rank[math.Float64bits(v)] }
}

const fnvOffset = 0xcbf29ce484222325

// fnvMix folds two words into a running FNV-1a style hash.
func fnvMix(h, a, b uint64) uint64 {
	const prime = 0x100000001b3
	for i := 0; i < 8; i++ {
		h = (h ^ (a & 0xff)) * prime
		a >>= 8
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (b & 0xff)) * prime
		b >>= 8
	}
	return h
}

func (g *graph) initialColors() []uint64 {
	return append([]uint64(nil), g.vert...)
}

// refine runs Weisfeiler–Lehman color refinement to a fixpoint: each
// vertex's color absorbs the sorted multiset of (neighbor color, edge
// weight) pairs over all other vertices until no refinement round splits a
// color class. The refined partition is an invariant of the abstract
// graph.
func (g *graph) refine(colors []uint64) []uint64 {
	n := g.n
	cur := append([]uint64(nil), colors...)
	sig := make([]uint64, 0, n-1)
	next := make([]uint64, n)
	for {
		for v := 0; v < n; v++ {
			sig = sig[:0]
			for u := 0; u < n; u++ {
				if u == v {
					continue
				}
				sig = append(sig, fnvMix(fnvOffset, cur[u], g.adj[v][u].h))
			}
			slices.Sort(sig)
			h := fnvMix(fnvOffset, cur[v], 0)
			for _, s := range sig {
				h = fnvMix(h, s, 0)
			}
			next[v] = h
		}
		if samePartition(cur, next) {
			return cur
		}
		cur = append(cur[:0], next...)
	}
}

// samePartition reports whether two colorings induce the same partition of
// the vertices: every pair of vertices shares a color in both or in neither.
func samePartition(a, b []uint64) bool {
	for i := range a {
		for j := 0; j < i; j++ {
			if (a[i] == a[j]) != (b[i] == b[j]) {
				return false
			}
		}
	}
	return true
}

// cells groups vertices by color, ordered by color value — an ordering
// that is invariant under relabeling because colors are functions of the
// abstract graph. Within a cell, vertices stay in index order.
func cells(colors []uint64) [][]int {
	type colored struct {
		c uint64
		v int
	}
	byColor := make([]colored, len(colors))
	for v, c := range colors {
		byColor[v] = colored{c, v}
	}
	slices.SortFunc(byColor, func(a, b colored) int {
		return cmp.Or(cmp.Compare(a.c, b.c), cmp.Compare(a.v, b.v))
	})
	verts := make([]int, len(colors))
	out := make([][]int, 0, len(colors))
	start := 0
	for i, cv := range byColor {
		verts[i] = cv.v
		if i+1 == len(byColor) || byColor[i+1].c != cv.c {
			out = append(out, verts[start:i+1:i+1])
			start = i + 1
		}
	}
	return out
}

// uniformCell reports whether every member of the cell is interchangeable
// with every other: all intra-cell pair weights are equal and every member
// sees the same weight towards each external vertex. Permuting such a cell
// is an automorphism, so canonicalization needs to branch on only one
// member — this is what keeps synthetic symmetric queries (identical star
// leaves, uniform cliques) cheap to canonicalize.
func (g *graph) uniformCell(cell []int) bool {
	if len(cell) < 2 {
		return true
	}
	intra := g.adj[cell[0]][cell[1]].h
	for i := 0; i < len(cell); i++ {
		for j := i + 1; j < len(cell); j++ {
			if g.adj[cell[i]][cell[j]].h != intra {
				return false
			}
		}
	}
	for x := 0; x < g.n; x++ {
		if _, in := slices.BinarySearch(cell, x); in { // cells are in index order
			continue
		}
		w := g.adj[cell[0]][x].h
		for _, v := range cell[1:] {
			if g.adj[v][x].h != w {
				return false
			}
		}
	}
	return true
}

// canonSearch is the individualization-refinement search for the minimal
// canonical encoding. It explores the whole (budget-bounded) search tree
// without pruning, so the set of visited leaves — and hence both the
// resulting minimal encoding and whether the budget trips — is invariant
// under relabeling of the input.
type canonSearch struct {
	g        *graph
	bestEnc  []byte
	bestPerm []int
	// enc and perm are the buffers the next leaf is encoded into; a leaf
	// that becomes the best swaps them with bestEnc and bestPerm.
	enc    []byte
	perm   []int
	leaves int
	nodes  int
}

func (s *canonSearch) search(colors []uint64) error {
	s.nodes++
	if s.nodes > maxCanonNodes {
		return errCanonBudget
	}
	colors = s.g.refine(colors)
	part := cells(colors)

	target := -1
	for i, cell := range part {
		if len(cell) > 1 {
			target = i
			break
		}
	}
	if target < 0 {
		// Discrete partition: a complete canonical labeling.
		s.leaves++
		if s.leaves > maxCanonLeaves {
			return errCanonBudget
		}
		if s.enc == nil {
			s.enc = make([]byte, 0, 8+16*s.g.n+40*len(s.g.preds))
		}
		s.enc, s.perm = s.g.encode(part, s.enc[:0], s.perm)
		if s.bestEnc == nil || bytes.Compare(s.enc, s.bestEnc) < 0 {
			s.bestEnc, s.enc = s.enc, s.bestEnc
			s.bestPerm, s.perm = s.perm, s.bestPerm
		}
		return nil
	}

	cell := part[target]
	candidates := cell
	if s.g.uniformCell(cell) {
		// Fully interchangeable members: any branch is an automorphic
		// image of any other, one suffices.
		candidates = cell[:1]
	}
	for _, v := range candidates {
		branch := append([]uint64(nil), colors...)
		branch[v] = fnvMix(branch[v], 0x6a09e667f3bcc909, 0xbb67ae8584caa73b)
		if err := s.search(branch); err != nil {
			return err
		}
	}
	return nil
}

func append64(buf []byte, a, b uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(buf, a), b)
}

// encode serializes the graph under the discrete partition's labeling,
// appending to buf and filling perm (allocated when nil). The encoding
// contains the complete invariant data (vertex statistics and every edge's
// weight multiset), so equal encodings imply isomorphic queries —
// fingerprint collisions between genuinely different queries would require
// a SHA-256 collision.
func (g *graph) encode(part [][]int, buf []byte, perm []int) ([]byte, []int) {
	n := g.n
	if perm == nil {
		perm = make([]int, n)
	}
	for pos, cell := range part { // original -> canonical
		perm[cell[0]] = pos
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	for _, cell := range part {
		buf = append64(buf, g.vdat[cell[0]][0], g.vdat[cell[0]][1])
	}
	for i := 0; i < n; i++ {
		vi := part[i][0]
		for j := i + 1; j < n; j++ {
			c := g.adj[vi][part[j][0]]
			if c.h == 0 {
				continue
			}
			buf = append64(buf, uint64(i), uint64(j))
			buf = binary.BigEndian.AppendUint64(buf, uint64(c.cnt))
			for _, p := range g.preds[c.lo : c.lo+c.cnt] {
				buf = append64(buf, p.w.sel, p.w.eval)
			}
		}
	}
	return buf, perm
}
