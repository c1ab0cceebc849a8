package plan

import (
	"math/bits"
	"sort"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

// Index is the cost model's cardinality rule for one query, the one place
// it is written down. The cardinality of a table set S is
//
//	card(S) = Π_{t∈S} card_t · Π_{p⊆S} sel_p · Π_{g⊆S} corr_g
//
// over the predicates p (unary filters, joins and n-ary predicates alike)
// whose tables all lie in S and the correlated groups g whose predicates
// all do (Section 5.1): a predicate completes when its last table joins, a
// group when its last predicate completes. A plan takes a leaf at its raw
// cardinality, so a table's filters complete at the first join it takes
// part in.
//
// The index lists, per table, the predicates and the groups over it in
// ascending order. It is read two ways: a Walk joins one table at a time
// (Evaluate, SubsetCard, the greedy heuristic), a Lattice fills every
// subset of a window of tables (the exact DPs and the seam window).
type Index struct {
	q      *qopt.Query
	preds  [][]int // table -> predicates over it, ascending
	groups [][]int // table -> correlated groups over it, ascending; nil without groups
}

// NewIndex compiles the rule for q.
func NewIndex(q *qopt.Query) *Index {
	n := q.NumTables()
	ix := &Index{q: q, preds: make([][]int, n)}
	count := make([]int, n)
	total := 0
	for _, p := range q.Predicates {
		for _, t := range p.Tables {
			count[t]++
			total++
		}
	}
	buf := make([]int, total) // one backing array for every table's list
	for t, c := range count {
		ix.preds[t], buf = buf[:0:c], buf[c:]
	}
	for pi, p := range q.Predicates {
		for _, t := range p.Tables {
			ix.preds[t] = append(ix.preds[t], pi)
		}
	}
	if len(q.Correlated) > 0 {
		ix.groups = make([][]int, n)
	}
	for gi, g := range q.Correlated {
		for _, pi := range g.Predicates {
			for _, t := range q.Predicates[pi].Tables {
				if l := ix.groups[t]; len(l) == 0 || l[len(l)-1] != gi {
					ix.groups[t] = append(l, gi)
				}
			}
		}
	}
	return ix
}

// groupsOf lists the correlated groups over table t.
func (ix *Index) groupsOf(t int) []int {
	if ix.groups == nil {
		return nil
	}
	return ix.groups[t]
}

// predIn reports whether every table of predicate pi is in.
func (ix *Index) predIn(pi int, in []bool) bool {
	for _, t := range ix.q.Predicates[pi].Tables {
		if !in[t] {
			return false
		}
	}
	return true
}

// groupIn reports whether every predicate of group gi is complete in in.
func (ix *Index) groupIn(gi int, in []bool) bool {
	for _, pi := range ix.q.Correlated[gi].Predicates {
		if !ix.predIn(pi, in) {
			return false
		}
	}
	return true
}

// union yields the items of two ascending lists in ascending order, once.
type union struct{ a, b []int }

func (u *union) next() (int, bool) {
	var x int
	switch {
	case len(u.a) == 0 && len(u.b) == 0:
		return 0, false
	case len(u.b) == 0 || len(u.a) > 0 && u.a[0] < u.b[0]:
		x, u.a = u.a[0], u.a[1:]
	case len(u.a) == 0 || u.b[0] < u.a[0]:
		x, u.b = u.b[0], u.b[1:]
	default:
		x, u.a, u.b = u.a[0], u.a[1:], u.b[1:]
	}
	return x, true
}

// Walk is the incremental reading of the rule: a left-deep pipeline that
// joins one table at a time. A lone first table stays at its raw
// cardinality; its filters complete with the first join.
type Walk struct {
	ix   *Index
	in   []bool
	size int
	leaf int     // the first table
	cur  float64 // the pipeline's cardinality (raw while size is 1)
}

// Walk starts an empty pipeline.
func (ix *Index) Walk() *Walk {
	return &Walk{ix: ix, in: make([]bool, ix.q.NumTables()), cur: 1}
}

// Add joins table t. It returns the new cardinality and appends to done
// the predicates that completed, ascending: selectivities multiply in that
// order, then the corrections of the groups that completed, ascending.
func (w *Walk) Add(t int, done []int) (float64, []int) {
	return w.join(t, true, done)
}

// Peek is the cardinality Add(t) would return, leaving the walk as it is.
func (w *Walk) Peek(t int) float64 {
	c, _ := w.join(t, false, nil)
	return c
}

// card is card(S) of the tables joined so far; for a lone table, its
// cardinality with its filters applied.
func (w *Walk) card() float64 {
	if w.size != 1 {
		return w.cur
	}
	c, _ := w.join(-1, false, nil)
	return c
}

// join joins table t (none when t < 0) and applies every predicate and
// group that completes: those over t, and while the pipeline holds a lone
// table, that table's own.
func (w *Walk) join(t int, commit bool, done []int) (float64, []int) {
	ix := w.ix
	c := w.cur
	var preds, groups union
	if t >= 0 {
		c *= ix.q.Tables[t].Card
		if w.size == 0 {
			if commit {
				w.in[t], w.size, w.leaf, w.cur = true, 1, t, c
			}
			return c, done
		}
		w.in[t] = true
		preds.b, groups.b = ix.preds[t], ix.groupsOf(t)
	}
	if w.size == 1 {
		preds.a, groups.a = ix.preds[w.leaf], ix.groupsOf(w.leaf)
	}
	for pi, ok := preds.next(); ok; pi, ok = preds.next() {
		if ix.predIn(pi, w.in) {
			c *= ix.q.Predicates[pi].Sel
			if commit {
				done = append(done, pi)
			}
		}
	}
	for gi, ok := groups.next(); ok; gi, ok = groups.next() {
		if ix.groupIn(gi, w.in) {
			c *= ix.q.Correlated[gi].CorrectionSel
		}
	}
	switch {
	case commit:
		w.size++
		w.cur = c
	case t >= 0:
		w.in[t] = false
	}
	return c, done
}

// setCard is card(S) of a table set, walked in ascending table order so
// the product is the same float64 on every call.
func (ix *Index) setCard(tables []int) float64 {
	ts := append([]int(nil), tables...)
	sort.Ints(ts)
	w := ix.Walk()
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			w.Add(t, nil)
		}
	}
	return w.card()
}

// SubsetCard is the estimated cardinality of the join of a table subset:
// card(S) of the rule above. It is the per-node estimate the streaming
// executor compares measured join sizes against.
func SubsetCard(q *qopt.Query, tables []int) float64 {
	return NewIndex(q).setCard(tables)
}

// term is one factor of the lattice recurrence: it applies to a subset
// once the subset holds every window position in mask.
type term struct {
	mask uint32
	f    float64 // selectivity, correction or evaluation cost per tuple
}

// Lattice is the subset reading of the rule over a window of tables joined
// onto a fixed base: card[m] = card(base ∪ {tables[i] : bit i of m}),
// filled by extending m without its lowest table by that table. Windows
// hold at most 31 tables.
type Lattice struct {
	card         []float64
	ix           *Index
	base, tables []int
	cout         bool
	params       cost.Params // with defaults
	final        uint32      // the subset m with base ∪ m every table; 0 when there is none
	raw          []float64   // position -> raw cardinality of its table
	pages        []float64   // position -> page count of its raw cardinality
	terms        [][]term    // position -> predicates, then groups, over its table completing in the window
	evals        [][]term    // position -> expensive predicates among terms; nil when every predicate is free
}

// Lattice fills the subset lattice of tables on top of base (disjoint), to
// be priced under spec.
func (ix *Index) Lattice(base, tables []int, spec cost.Spec) *Lattice {
	q := ix.q
	l := &Lattice{
		ix:     ix,
		base:   base,
		tables: tables,
		cout:   spec.Metric == cost.Cout,
		params: spec.Params.WithDefaults(),
		raw:    make([]float64, len(tables)),
		pages:  make([]float64, len(tables)),
		terms:  make([][]term, len(tables)),
	}
	if len(base)+len(tables) == q.NumTables() {
		l.final = 1<<uint(len(tables)) - 1
	}
	pos := make([]int, q.NumTables()) // 0: outside, -1: base, i+1: window position i
	for _, t := range base {
		pos[t] = -1
	}
	for i, t := range tables {
		pos[t] = i + 1
		l.raw[i] = q.Tables[t].Card
		l.pages[i] = l.params.Pages(l.raw[i])
	}
	for _, p := range q.Predicates {
		if p.EvalCostPerTuple > 0 {
			l.evals = make([][]term, len(tables))
			break
		}
	}
	// window is the positions predicate pi needs; ok is false when one of
	// its tables lies outside base ∪ window.
	window := func(pi int) (mask uint32, ok bool) {
		for _, t := range q.Predicates[pi].Tables {
			switch p := pos[t]; {
			case p == 0:
				return 0, false
			case p > 0:
				mask |= 1 << uint(p-1)
			}
		}
		return mask, true
	}
	size := 0
	for _, t := range tables {
		size += len(ix.preds[t]) + len(ix.groupsOf(t))
	}
	buf := make([]term, size) // one backing array for every position's terms
	for i, t := range tables {
		c := len(ix.preds[t]) + len(ix.groupsOf(t))
		l.terms[i], buf = buf[:0:c], buf[c:]
		for _, pi := range ix.preds[t] {
			if m, ok := window(pi); ok {
				p := &q.Predicates[pi]
				l.terms[i] = append(l.terms[i], term{m, p.Sel})
				if p.EvalCostPerTuple > 0 {
					l.evals[i] = append(l.evals[i], term{m, p.EvalCostPerTuple})
				}
			}
		}
		for _, gi := range ix.groupsOf(t) {
			var gm uint32
			ok := true
			for _, pi := range q.Correlated[gi].Predicates {
				m, in := window(pi)
				if !in {
					ok = false
					break
				}
				gm |= m
			}
			if ok {
				l.terms[i] = append(l.terms[i], term{gm, q.Correlated[gi].CorrectionSel})
			}
		}
	}
	bw := ix.Walk()
	for _, t := range base {
		bw.Add(t, nil)
	}
	l.card = make([]float64, 1<<uint(len(tables)))
	l.card[0] = bw.card()
	for m := 1; m < len(l.card); m++ {
		low := bits.TrailingZeros(uint(m))
		c := l.card[m&(m-1)] * l.raw[low]
		for _, tm := range l.terms[low] {
			if tm.mask&^uint32(m) == 0 {
				c *= tm.f
			}
		}
		l.card[m] = c
	}
	return l
}

// lone is the one table of base ∪ m, or -1 when it holds more or fewer.
func (l *Lattice) lone(m uint32) int {
	switch len(l.base) {
	case 0:
		if m != 0 && m&(m-1) == 0 {
			return l.tables[bits.TrailingZeros32(m)]
		}
	case 1:
		if m == 0 {
			return l.base[0]
		}
	}
	return -1
}

// Operand is the cardinality base ∪ m enters a join with: a lone table
// joins at its raw cardinality, a larger set at card[m].
func (l *Lattice) Operand(m uint32) float64 {
	if t := l.lone(m); t >= 0 {
		return l.ix.q.Tables[t].Card
	}
	return l.card[m]
}

// Result is the C_out term of the join producing base ∪ s: its
// cardinality, or nothing for the final result and for a lone table.
func (l *Lattice) Result(s uint32) float64 {
	if s == l.final || l.lone(s) >= 0 {
		return 0
	}
	return l.card[s]
}

// Step prices joining window table i onto base ∪ m with operator op the
// way Evaluate prices a left-deep join: nothing for the plan's first
// table; under C_out the result's cardinality unless it is the final
// result; under operator cost the operator on the outer operand's and
// the table's pages, plus each predicate completing at this join at its
// evaluation cost per outer tuple (a lone outer table's filters complete
// here too).
func (l *Lattice) Step(m uint32, i int, op cost.Operator) float64 {
	s := m | 1<<uint(i)
	switch {
	case l.cout:
		return l.Result(s)
	case m == 0 && len(l.base) == 0:
		return 0
	}
	outer := l.Operand(m)
	c := cost.JoinCost(op, l.params.Pages(outer), l.pages[i], l.params)
	if l.evals == nil {
		return c
	}
	var ec float64
	if t := l.lone(m); t >= 0 {
		for _, pi := range l.ix.preds[t] {
			if p := &l.ix.q.Predicates[pi]; len(p.Tables) == 1 {
				ec += p.EvalCostPerTuple
			}
		}
	}
	for _, tm := range l.evals[i] {
		if tm.mask&^s == 0 {
			ec += tm.f
		}
	}
	if ec > 0 {
		c += ec * outer
	}
	return c
}
