package exec

import (
	"fmt"

	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// StreamOptions tune the streaming executor.
type StreamOptions struct {
	// batchSize is the number of rows moved per iterator pull; zero means
	// DefaultBatchSize. Only the package's tests vary it, to check that
	// the result does not depend on it.
	batchSize int
	// EstQuery supplies the optimizer's view of the query — the
	// estimates recorded next to measured cardinalities in the Trace. It
	// must be structurally identical to the database's query (same
	// tables, same predicate shapes); only the numbers may differ. Nil
	// means the database's own (ground-truth) query.
	EstQuery *qopt.Query
}

// Run is one compiled streaming execution: a pull-based pipeline over the
// whole join tree plus the Trace its operators fill in as rows flow.
type Run struct {
	// Cols is the output schema.
	Cols []string
	// Trace collects measured vs. estimated cardinalities; counts are
	// final once the run is exhausted (Collect or Drain returned).
	Trace *Trace

	it iterator
}

// Next returns the next output batch, or nil when the run is exhausted.
// The batch slice is reused between calls; the rows are stable.
func (r *Run) Next() ([][]int64, error) { return r.it.next() }

// Collect exhausts the run and materializes the result.
func (r *Run) Collect() (*Relation, error) {
	out := &Relation{Cols: r.Cols}
	for {
		batch, err := r.it.next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			r.Trace.ResultRows = len(out.Rows)
			return out, nil
		}
		out.Rows = append(out.Rows, batch...)
	}
}

// Drain exhausts the run counting rows without materializing the result.
func (r *Run) Drain() (int, error) {
	n := 0
	for {
		batch, err := r.it.next()
		if err != nil {
			return n, err
		}
		if batch == nil {
			r.Trace.ResultRows = n
			return n, nil
		}
		n += len(batch)
	}
}

// Stream compiles an arbitrary bushy join tree into a streaming iterator
// pipeline over the database: scans with unary predicates pushed down,
// one symmetric hash join per inner node, batch-at-a-time pulls, and
// per-operator measured/estimated capture into the run's Trace. Nothing
// executes until the run is pulled.
func (db *Database) Stream(t *plan.Tree, o StreamOptions) (*Run, error) {
	q := db.Query
	if err := t.Validate(q); err != nil {
		return nil, err
	}
	estQ := o.EstQuery
	if estQ == nil {
		estQ = q
	}
	if err := checkSameStructure(q, estQ); err != nil {
		return nil, err
	}
	env := &streamEnv{estQ: estQ, batchSize: o.batchSize, trace: &Trace{}}
	for ti, rel := range db.Relations {
		env.srcs = append(env.srcs, &source{
			rel:     rel,
			tables:  []int{ti},
			filters: db.scanFilters(ti),
		})
	}
	for pi := range q.Predicates {
		p := &q.Predicates[pi]
		if !p.IsBinary() {
			continue // unary: pushed to the scan via scanFilters
		}
		a, b := p.Tables[0], p.Tables[1]
		env.preds = append(env.preds, envPred{
			a: a, b: b,
			colA: predCol(a, pi), colB: predCol(b, pi),
			orig: pi,
		})
	}
	it, cols, _, _, err := env.compile(t)
	if err != nil {
		return nil, err
	}
	return &Run{Cols: cols, Trace: env.trace, it: it}, nil
}

// checkSameStructure verifies that est is the same query as q up to the
// numbers (cardinalities and selectivities may differ, structure may not).
func checkSameStructure(q, est *qopt.Query) error {
	if len(est.Tables) != len(q.Tables) {
		return fmt.Errorf("exec: estimate query has %d tables, database has %d", len(est.Tables), len(q.Tables))
	}
	if len(est.Predicates) != len(q.Predicates) {
		return fmt.Errorf("exec: estimate query has %d predicates, database has %d", len(est.Predicates), len(q.Predicates))
	}
	for pi := range q.Predicates {
		a, b := q.Predicates[pi].Tables, est.Predicates[pi].Tables
		if len(a) != len(b) {
			return fmt.Errorf("exec: estimate predicate %d spans %d tables, database's spans %d", pi, len(b), len(a))
		}
		for k := range a {
			if a[k] != b[k] {
				return fmt.Errorf("exec: estimate predicate %d connects %v, database's connects %v", pi, b, a)
			}
		}
	}
	return nil
}

// source is one leaf input of a compiled pipeline: a base table in the
// plain streaming path, a materialized intermediate (virtual table) under
// adaptive execution.
type source struct {
	rel *Relation
	// tables is the set of base tables the source covers.
	tables []int
	// filters are unary predicates pushed down to the scan (base-table
	// sources only; virtual tables are already filtered).
	filters []scanFilter
	// applied lists predicates already applied inside the source
	// (virtual tables only), for trace bookkeeping.
	applied []int
}

// envPred is one executable binary join predicate in source space.
type envPred struct {
	// a and b are source indices.
	a, b int
	// colA and colB are the key column names on each source.
	colA, colB string
	// orig is the predicate's index in the original query.
	orig int
}

// streamEnv compiles trees whose leaves index srcs, with estimates drawn
// from estQ (a query over the same source index space).
type streamEnv struct {
	srcs      []*source
	preds     []envPred
	estQ      *qopt.Query
	batchSize int
	trace     *Trace
}

// compile builds the iterator for node t, returning the iterator, its
// output schema, the source indices and base tables it covers.
func (e *streamEnv) compile(t *plan.Tree) (iterator, []string, []int, []int, error) {
	if t.IsLeaf() {
		si := t.Table
		if si < 0 || si >= len(e.srcs) {
			return nil, nil, nil, nil, fmt.Errorf("exec: tree references unknown source %d", si)
		}
		src := e.srcs[si]
		var tr *ScanTrace
		if len(src.tables) == 1 {
			tr = &ScanTrace{
				Table:        src.tables[0],
				AppliedPreds: filterPreds(src.filters),
				Estimated:    plan.SubsetCard(e.estQ, []int{si}),
			}
			e.trace.Scans = append(e.trace.Scans, tr)
		}
		return newScanIter(src.rel, src.filters, e.batchSize, tr), src.rel.Cols, []int{si}, src.tables, nil
	}

	lIt, lCols, lSrcs, lTabs, err := e.compile(t.Left)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rIt, rCols, rSrcs, rTabs, err := e.compile(t.Right)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	var lKey, rKey []int
	var applied []int
	for i := range e.preds {
		p := &e.preds[i]
		var lCol, rCol string
		switch {
		case containsTable(lSrcs, p.a) && containsTable(rSrcs, p.b):
			lCol, rCol = p.colA, p.colB
		case containsTable(lSrcs, p.b) && containsTable(rSrcs, p.a):
			lCol, rCol = p.colB, p.colA
		default:
			continue
		}
		li := colIndexOf(lCols, lCol)
		ri := colIndexOf(rCols, rCol)
		if li < 0 || ri < 0 {
			return nil, nil, nil, nil, fmt.Errorf("exec: join key %s/%s missing from operand schemas", lCol, rCol)
		}
		lKey = append(lKey, li)
		rKey = append(rKey, ri)
		applied = append(applied, p.orig)
	}

	srcSet := append(append([]int(nil), lSrcs...), rSrcs...)
	baseTabs := append(append([]int(nil), lTabs...), rTabs...)
	tr := &JoinTrace{
		Tables:       sortedInts(baseTabs),
		AppliedPreds: applied,
		Estimated:    plan.SubsetCard(e.estQ, srcSet),
	}
	e.trace.Joins = append(e.trace.Joins, tr)
	cols := append(append([]string(nil), lCols...), rCols...)
	// Build on the estimated-smaller input: the join drains that side
	// first and runs as a classic build/probe join when the estimate holds.
	lEst := plan.SubsetCard(e.estQ, lSrcs)
	rEst := plan.SubsetCard(e.estQ, rSrcs)
	buildLeft := lEst <= rEst
	return newJoinIter(lIt, rIt, lKey, rKey, e.batchSize, buildLeft, tableSizeHint(lEst, rEst, buildLeft), tr), cols, srcSet, baseTabs, nil
}

// tableSizeHint turns the build side's estimated cardinality into a map
// pre-size, capped so a wild misestimate cannot allocate an absurd table.
func tableSizeHint(lEst, rEst float64, buildLeft bool) int {
	est := lEst
	if !buildLeft {
		est = rEst
	}
	const maxHint = 1 << 20
	if est != est || est <= 0 { // NaN or nonsense: let the map grow
		return 0
	}
	if est > maxHint {
		return maxHint
	}
	return int(est)
}

func colIndexOf(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

func filterPreds(filters []scanFilter) []int {
	var out []int
	for _, f := range filters {
		out = append(out, f.pred)
	}
	return out
}
