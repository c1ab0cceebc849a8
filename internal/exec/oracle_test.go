package exec

import (
	"fmt"

	"milpjoin/internal/plan"
)

// The materializing oracle: the plainest possible evaluation of a join
// tree, which the streaming executor is differential-tested against. It
// shares only the synthesized data, the scan filters and the hash table
// with production code.

// executeTree runs an arbitrary bushy join tree bottom-up, materializing
// every intermediate result: scans apply unary predicates, and each join
// matches on every binary predicate whose two tables first meet at that
// node. Joins with no applicable predicate degenerate to cross products
// (as the paper's plan space allows). Besides the result it returns every
// join in post-order — the order a Stream trace records its joins in.
func (db *Database) executeTree(t *plan.Tree) (*Relation, []oracleJoin, error) {
	q := db.Query
	if err := t.Validate(q); err != nil {
		return nil, nil, err
	}
	var joins []oracleJoin
	var walk func(node *plan.Tree) (*Relation, []int, error)
	walk = func(node *plan.Tree) (*Relation, []int, error) {
		if node.IsLeaf() {
			return db.scanBase(node.Table), []int{node.Table}, nil
		}
		left, lTabs, err := walk(node.Left)
		if err != nil {
			return nil, nil, err
		}
		right, rTabs, err := walk(node.Right)
		if err != nil {
			return nil, nil, err
		}
		var keys []keyPair
		for pi := range q.Predicates {
			p := &q.Predicates[pi]
			if !p.IsBinary() {
				continue
			}
			a, b := p.Tables[0], p.Tables[1]
			switch {
			case containsTable(lTabs, a) && containsTable(rTabs, b):
				keys = append(keys, keyPair{left: predCol(a, pi), right: predCol(b, pi)})
			case containsTable(lTabs, b) && containsTable(rTabs, a):
				keys = append(keys, keyPair{left: predCol(b, pi), right: predCol(a, pi)})
			}
		}
		out, err := hashJoin(left, right, keys)
		if err != nil {
			return nil, nil, err
		}
		tabs := append(append([]int(nil), lTabs...), rTabs...)
		joins = append(joins, oracleJoin{tables: sortedInts(tabs), rows: out.NumRows()})
		return out, tabs, nil
	}
	out, _, err := walk(t)
	return out, joins, err
}

// oracleJoin is one join the oracle ran: the base tables it covers, in
// ascending order, and the size of its result.
type oracleJoin struct {
	tables []int
	rows   int
}

// execute runs a left-deep plan: executeTree on the plan's left-deep tree.
func (db *Database) execute(p *plan.Plan) (*Relation, error) {
	if err := p.Validate(db.Query); err != nil {
		return nil, err
	}
	out, _, err := db.executeTree(p.LeftDeep())
	return out, err
}

// scanBase returns base table t with its unary predicates applied — the
// materializing form of predicate pushdown at the scan.
func (db *Database) scanBase(t int) *Relation {
	rel := db.Relations[t]
	filters := db.scanFilters(t)
	if len(filters) == 0 {
		return rel
	}
	out := &Relation{Cols: rel.Cols}
	for _, row := range rel.Rows {
		if passesFilters(row, filters) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// keyPair names one equi-join key on each side.
type keyPair struct{ left, right string }

// hashJoin equi-joins left and right on the key pairs; with no keys it
// builds the cross product. The build side is the smaller input; keys are
// hashed as int64 tuples with bucket collisions resolved by comparing the
// actual key columns.
func hashJoin(left, right *Relation, keys []keyPair) (*Relation, error) {
	out := &Relation{Cols: append(append([]string(nil), left.Cols...), right.Cols...)}

	if len(keys) == 0 {
		for _, lr := range left.Rows {
			for _, rr := range right.Rows {
				out.Rows = append(out.Rows, concatRows(lr, rr))
			}
		}
		return out, nil
	}

	lIdx := make([]int, len(keys))
	rIdx := make([]int, len(keys))
	for k, kp := range keys {
		lIdx[k] = left.colIndex(kp.left)
		rIdx[k] = right.colIndex(kp.right)
		if lIdx[k] < 0 || rIdx[k] < 0 {
			return nil, fmt.Errorf("exec: join key %v missing (left %d, right %d)", kp, lIdx[k], rIdx[k])
		}
	}

	// Build on the smaller input.
	build, probe := right, left
	bIdx, pIdx := rIdx, lIdx
	buildIsRight := true
	if left.NumRows() < right.NumRows() {
		build, probe = left, right
		bIdx, pIdx = lIdx, rIdx
		buildIsRight = false
	}

	tab := newHashTab(bIdx, build.NumRows())
	for _, row := range build.Rows {
		tab.insert(row)
	}
	for _, prow := range probe.Rows {
		tab.probe(prow, pIdx, func(brow []int64) {
			if buildIsRight {
				out.Rows = append(out.Rows, concatRows(prow, brow))
			} else {
				out.Rows = append(out.Rows, concatRows(brow, prow))
			}
		})
	}
	return out, nil
}

// probe calls emit for every inserted row whose key tuple equals row's key
// tuple at pIdx. It allocates nothing itself.
func (t *hashTab) probe(row []int64, pIdx []int, emit func(match []int64)) {
	for _, cand := range t.bucket(row, pIdx) {
		if keysEqual(cand, t.idx, row, pIdx) {
			emit(cand)
		}
	}
}
