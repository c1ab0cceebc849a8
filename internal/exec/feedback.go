package exec

import (
	"context"
	"fmt"
	"math"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// AdaptiveOptions tune ExecuteAdaptive.
type AdaptiveOptions struct {
	// EstQuery is the optimizer's view of the query (default: the
	// database's ground-truth query). Structure must match the database.
	EstQuery *qopt.Query
	// QErrorThreshold is the per-join q-error above which the remainder
	// of the query is re-optimized (default 2; +Inf never re-optimizes).
	// At most two re-optimizations run per execution.
	QErrorThreshold float64
	// Reoptimize plans the unexecuted remainder: it receives a query
	// whose tables are the current frontier (materialized intermediates
	// with measured cardinalities, unexecuted base tables) and whose
	// selectivities carry every correction learned so far, and returns a
	// join tree over that query's tables. Nil disables re-optimization.
	// A failing re-optimization falls back to the current plan.
	Reoptimize func(ctx context.Context, remainder *qopt.Query) (*plan.Tree, error)
}

// AdaptiveResult is the outcome of an adaptive execution.
type AdaptiveResult struct {
	// Result is the final relation.
	Result *Relation
	// Trace records every executed scan and join across all stages, in
	// execution order (the last join is the root).
	Trace *Trace
	// Reopts counts mid-query re-optimizations that replaced the plan;
	// ReoptFailures counts re-optimization attempts that errored (the
	// execution then kept its current plan).
	Reopts, ReoptFailures int
	// Corrections holds the corrected selectivities learned from
	// measured cardinalities, keyed by original predicate index.
	Corrections cost.SelectivityCorrections
	// CorrectedQuery is EstQuery with Corrections applied.
	CorrectedQuery *qopt.Query
}

// maxReopts bounds the number of mid-query re-optimizations per execution.
const maxReopts = 2

// withDefaults fills zero fields.
func (o AdaptiveOptions) withDefaults(db *Database) AdaptiveOptions {
	if o.EstQuery == nil {
		o.EstQuery = db.Query
	}
	if o.QErrorThreshold == 0 {
		o.QErrorThreshold = 2
	}
	return o
}

// ExecuteAdaptive executes a join tree with materialization checkpoints
// between joins — the Kabra–DeWitt style of mid-query re-optimization.
// Joins execute one at a time, deepest-leftmost first, each as a streaming
// pipeline over the current frontier of materialized intermediates and
// base tables. After each join the measured cardinality is compared with
// the estimate: when the q-error exceeds the threshold and at least two
// joins remain, the measured cardinalities and corrected selectivities
// are folded into a remainder query and Reoptimize replans the unexecuted
// part of the tree. Every strategy's output is runnable here because the
// remainder is an ordinary qopt.Query.
func (db *Database) ExecuteAdaptive(ctx context.Context, t *plan.Tree, o AdaptiveOptions) (*AdaptiveResult, error) {
	o = o.withDefaults(db)
	q := db.Query
	if err := t.Validate(q); err != nil {
		return nil, err
	}
	if err := checkSameStructure(q, o.EstQuery); err != nil {
		return nil, err
	}

	res := &AdaptiveResult{
		Trace:       &Trace{},
		Corrections: cost.NewSelectivityCorrections(),
	}

	// The frontier: one source per unexecuted base table, plus one
	// source per materialized intermediate. The tree's leaves index it.
	frontier := make([]*source, 0, q.NumTables())
	for ti, rel := range db.Relations {
		frontier = append(frontier, &source{rel: rel, tables: []int{ti}, filters: db.scanFilters(ti)})
	}
	tree := cloneTree(t)

	for !tree.IsLeaf() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remQ, predMap := remainderQuery(o.EstQuery, frontier, res.Corrections)

		// Execute the deepest-leftmost join whose operands are frontier
		// leaves as one streaming pipeline.
		node := leftmostBothLeaf(tree)
		env := &streamEnv{srcs: frontier, estQ: remQ, trace: res.Trace}
		for rp := range remQ.Predicates {
			p := &remQ.Predicates[rp]
			if !p.IsBinary() {
				continue
			}
			op := predMap[rp]
			ta, tb := q.Predicates[op].Tables[0], q.Predicates[op].Tables[1]
			env.preds = append(env.preds, envPred{
				a: p.Tables[0], b: p.Tables[1],
				colA: predCol(ta, op), colB: predCol(tb, op),
				orig: op,
			})
		}
		scansBefore := len(res.Trace.Scans)
		it, cols, _, _, err := env.compile(node)
		if err != nil {
			return nil, err
		}
		run := &Run{Cols: cols, Trace: res.Trace, it: it}
		rel, err := run.Collect()
		if err != nil {
			return nil, err
		}

		// Fold the stage's measurements into the corrections: unary
		// selectivities from the scans, join selectivities from the
		// measured output against the measured operands, distributed over
		// the predicates applied at this join.
		for _, sc := range res.Trace.Scans[scansBefore:] {
			res.Corrections.ObserveScan(sc.AppliedPreds, sc.InRows, sc.OutRows)
		}
		jt := res.Trace.Joins[len(res.Trace.Joins)-1]
		res.Corrections.ObserveJoin(o.EstQuery, jt.AppliedPreds, jt.LeftRows, jt.RightRows, jt.Measured)

		// Merge the executed join into the frontier and shrink the tree.
		la, lb := node.Left.Table, node.Right.Table
		merged := &source{
			rel:    rel,
			tables: sortedInts(append(append([]int(nil), frontier[la].tables...), frontier[lb].tables...)),
		}
		frontier = mergeFrontier(frontier, la, lb, merged)
		tree = shrinkTree(tree, node, la, lb, len(frontier)-1)

		// Re-optimize the remainder when the estimate was badly off and
		// re-planning can still change anything (two or more joins left).
		if o.Reoptimize != nil && jt.QError() > o.QErrorThreshold &&
			len(frontier) >= 3 && res.Reopts < maxReopts {
			newRemQ, _ := remainderQuery(o.EstQuery, frontier, res.Corrections)
			newTree, err := o.Reoptimize(ctx, newRemQ)
			if err != nil || newTree == nil || newTree.Validate(newRemQ) != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				res.ReoptFailures++
			} else {
				tree = cloneTree(newTree)
				res.Reopts++
			}
		}

		res.Result = rel
	}
	res.Trace.ResultRows = res.Result.NumRows()
	res.CorrectedQuery = res.Corrections.Apply(o.EstQuery)
	return res, nil
}

// remainderQuery builds the optimizer's view of the unexecuted part of
// the query: one table per frontier source (measured cardinalities for
// materialized intermediates, corrected base cardinalities otherwise) and
// one predicate per original predicate that still crosses the frontier,
// with corrected selectivities. predMap maps each remainder predicate
// back to its original index.
func remainderQuery(estQ *qopt.Query, frontier []*source, corr cost.SelectivityCorrections) (*qopt.Query, []int) {
	owner := map[int]int{}
	for si, src := range frontier {
		for _, t := range src.tables {
			owner[t] = si
		}
	}
	out := &qopt.Query{}
	for si, src := range frontier {
		if len(src.tables) == 1 {
			t := estQ.Tables[src.tables[0]]
			out.Tables = append(out.Tables, qopt.Table{Name: t.Name, Card: math.Max(1, t.Card)})
			continue
		}
		out.Tables = append(out.Tables, qopt.Table{
			Name: fmt.Sprintf("V%d", si),
			Card: math.Max(1, float64(src.rel.NumRows())),
		})
	}
	var predMap []int
	for pi := range estQ.Predicates {
		p := &estQ.Predicates[pi]
		switch len(p.Tables) {
		case 1:
			si := owner[p.Tables[0]]
			if len(frontier[si].tables) > 1 {
				continue // already applied at the scan
			}
			out.Predicates = append(out.Predicates, qopt.Predicate{
				Name: p.Name, Tables: []int{si}, Sel: corr.Sel(estQ, pi),
			})
			predMap = append(predMap, pi)
		case 2:
			a, b := owner[p.Tables[0]], owner[p.Tables[1]]
			if a == b {
				continue // applied at the join that merged its tables
			}
			out.Predicates = append(out.Predicates, qopt.Predicate{
				Name: p.Name, Tables: []int{a, b}, Sel: corr.Sel(estQ, pi),
			})
			predMap = append(predMap, pi)
		}
	}
	return out, predMap
}

// leftmostBothLeaf returns the deepest-leftmost join node whose operands
// are both leaves. Every non-leaf tree has one.
func leftmostBothLeaf(t *plan.Tree) *plan.Tree {
	if !t.Left.IsLeaf() {
		return leftmostBothLeaf(t.Left)
	}
	if !t.Right.IsLeaf() {
		return leftmostBothLeaf(t.Right)
	}
	return t
}

// mergeFrontier removes the two consumed sources and appends the merged
// one, returning the compacted frontier. Index mapping is captured by
// shrinkTree, which runs on the same (la, lb, new index) triple.
func mergeFrontier(frontier []*source, la, lb int, merged *source) []*source {
	out := frontier[:0]
	for si, src := range frontier {
		if si == la || si == lb {
			continue
		}
		out = append(out, src)
	}
	return append(out, merged)
}

// shrinkTree replaces the executed node with a leaf for the merged source
// and remaps every other leaf index from the old frontier numbering to
// the compacted one.
func shrinkTree(t, executed *plan.Tree, la, lb, mergedIdx int) *plan.Tree {
	remap := func(old int) int {
		shift := 0
		if old > la {
			shift++
		}
		if old > lb {
			shift++
		}
		return old - shift
	}
	var walk func(n *plan.Tree) *plan.Tree
	walk = func(n *plan.Tree) *plan.Tree {
		if n == executed {
			return plan.Leaf(mergedIdx)
		}
		if n.IsLeaf() {
			return plan.Leaf(remap(n.Table))
		}
		return plan.Join(walk(n.Left), walk(n.Right))
	}
	return walk(t)
}

// cloneTree deep-copies a tree so adaptive execution never mutates the
// caller's (possibly shared) plan.
func cloneTree(t *plan.Tree) *plan.Tree {
	if t == nil {
		return nil
	}
	if t.IsLeaf() {
		return plan.Leaf(t.Table)
	}
	return plan.Join(cloneTree(t.Left), cloneTree(t.Right))
}
