package plan

import (
	"fmt"
	"strings"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

// Tree is a bushy join tree: a leaf scans one table, an inner node joins
// the results of its children. Left-deep plans are the special case where
// every right child is a leaf; bushy trees are the wider space the paper
// leaves to future work and are provided here as a baseline for measuring
// the cost of the left-deep restriction.
type Tree struct {
	// Table is the scanned table at a leaf (children nil).
	Table int
	// Left and Right are the join inputs at an inner node.
	Left, Right *Tree
}

// Leaf constructs a scan node.
func Leaf(table int) *Tree { return &Tree{Table: table} }

// Join constructs an inner node.
func Join(left, right *Tree) *Tree { return &Tree{Left: left, Right: right} }

// IsLeaf reports whether t scans a base table.
func (t *Tree) IsLeaf() bool { return t.Left == nil && t.Right == nil }

// Tables appends all table indices under t.
func (t *Tree) Tables(out []int) []int {
	if t.IsLeaf() {
		return append(out, t.Table)
	}
	return t.Right.Tables(t.Left.Tables(out))
}

// String renders the tree, e.g. "((T0 ⋈ T1) ⋈ (T2 ⋈ T3))".
func (t *Tree) String() string {
	var sb strings.Builder
	t.render(&sb)
	return sb.String()
}

func (t *Tree) render(sb *strings.Builder) {
	if t.IsLeaf() {
		fmt.Fprintf(sb, "T%d", t.Table)
		return
	}
	sb.WriteString("(")
	t.Left.render(sb)
	sb.WriteString(" ⋈ ")
	t.Right.render(sb)
	sb.WriteString(")")
}

// Validate checks that t joins each of the query's tables exactly once.
func (t *Tree) Validate(q *qopt.Query) error {
	tables := t.Tables(nil)
	if len(tables) != q.NumTables() {
		return fmt.Errorf("plan: tree joins %d tables, query has %d", len(tables), q.NumTables())
	}
	seen := make([]bool, q.NumTables())
	for _, tb := range tables {
		if tb < 0 || tb >= q.NumTables() {
			return fmt.Errorf("plan: tree references unknown table %d", tb)
		}
		if seen[tb] {
			return fmt.Errorf("plan: tree joins table %d twice", tb)
		}
		seen[tb] = true
	}
	return nil
}

// LeftDeep converts a left-deep plan into the equivalent tree.
func (p *Plan) LeftDeep() *Tree {
	if len(p.Order) == 0 {
		return nil
	}
	t := Leaf(p.Order[0])
	for _, tb := range p.Order[1:] {
		t = Join(t, Leaf(tb))
	}
	return t
}

// LeftDeepPlan flattens a linear tree into the cost-equivalent left-deep
// plan; nil for a genuinely bushy tree (or a nil one). Under C_out join
// cost is orientation-blind, so any chain where every join has a leaf
// child flattens (the per-step table sets are identical); under operator
// costs outer and inner are priced differently, so only strict left-deep
// shapes (every right child a leaf) qualify.
func (t *Tree) LeftDeepPlan(metric cost.Metric) *Plan {
	if t == nil {
		return nil
	}
	var rev []int
	n := t
	for !n.IsLeaf() {
		switch {
		case n.Right.IsLeaf():
			rev = append(rev, n.Right.Table)
			n = n.Left
		case metric == cost.Cout && n.Left.IsLeaf():
			rev = append(rev, n.Left.Table)
			n = n.Right
		default:
			return nil
		}
	}
	rev = append(rev, n.Table)
	order := make([]int, len(rev))
	for i, tb := range rev {
		order[len(rev)-1-i] = tb
	}
	return &Plan{Order: order}
}

// TreeCost prices a bushy tree exactly under spec by the rules Index
// states: every join's result is card(S) of the tables under it, and a
// leaf enters its join at its raw cardinality; C_out sums every non-root
// join result; OperatorCost prices each join with the spec's operator on
// both operand page counts, plus the evaluation cost of the predicates it
// completes per tuple of its left operand. On a left-deep tree this is
// Cost of the same plan.
func TreeCost(q *qopt.Query, t *Tree, spec cost.Spec) (float64, error) {
	if err := t.Validate(q); err != nil {
		return 0, err
	}
	if spec.Metric != cost.Cout && spec.Metric != cost.OperatorCost {
		return 0, fmt.Errorf("plan: unknown metric %v", spec.Metric)
	}
	params := spec.Params.WithDefaults()
	ix := NewIndex(q)
	var total float64
	// walk returns card(S) and ec(S) of the node's table set S.
	var walk func(node *Tree, isRoot bool) (card, ec float64)
	walk = func(node *Tree, isRoot bool) (float64, float64) {
		if node.IsLeaf() {
			return q.Tables[node.Table].Card, 0
		}
		lc, lec := walk(node.Left, false)
		rc, rec := walk(node.Right, false)
		card, ec := ix.setCard(node.Tables(nil))
		switch {
		case spec.Metric == cost.OperatorCost:
			total += bill(ec-lec-rec, lc) + cost.JoinCost(spec.Op, params.Pages(lc), params.Pages(rc), params)
		case !isRoot:
			total += card
		}
		return card, ec
	}
	walk(t, true)
	return total, nil
}
