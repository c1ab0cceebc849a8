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
// The billing rule for evaluation cost sits beside it (Section 5.1). Under
// operator cost only, a predicate's EvalCostPerTuple is billed once, at the
// join that completes it, per tuple of that join's left operand as the
// operand enters the join. A join of table sets L and R thus bills
//
//	(ec(L ∪ R) − ec(L) − ec(R)) · card_in(L)
//
// where ec(S) sums EvalCostPerTuple over the predicates within S, and is
// zero for a lone table, which enters at its raw cardinality card_in and
// completes its filters at its first join. In a left-deep plan the left
// operand is the pipeline.
//
// The index lists, per table, the predicates and the groups over it in
// ascending order. It is read two ways: a Walk joins one table at a time
// (Evaluate, SubsetCard, the greedy heuristic, the hybrid stitcher), a
// Lattice fills every subset of a window of tables (the exact DPs and the
// seam window).
type Index struct {
	q      *qopt.Query
	raw    []float64 // table -> its raw cardinality
	preds  [][]use   // table -> predicates over it, ascending
	groups [][]int   // table -> correlated groups over it, ascending; nil without groups
	evals  bool      // some predicate has an evaluation cost
}

// use is a predicate over a table as a walk reads it: the predicate
// completes when other is in too (a filter's other is its own table; -1
// marks an n-ary predicate, whose tables are all checked).
type use struct {
	pred, other int
	sel, eval   float64
}

// NewIndex compiles the rule for q.
func NewIndex(q *qopt.Query) *Index {
	n := q.NumTables()
	ix := &Index{q: q, raw: make([]float64, n), preds: make([][]use, n)}
	for t, tb := range q.Tables {
		ix.raw[t] = tb.Card
	}
	count := make([]int, n)
	total := 0
	for _, p := range q.Predicates {
		for _, t := range p.Tables {
			count[t]++
			total++
		}
		ix.evals = ix.evals || p.EvalCostPerTuple > 0
	}
	buf := make([]use, total) // one backing array for every table's list
	for t, c := range count {
		ix.preds[t], buf = buf[:0:c], buf[c:]
	}
	for pi, p := range q.Predicates {
		for i, t := range p.Tables {
			u := use{pred: pi, other: -1, sel: p.Sel, eval: p.EvalCostPerTuple}
			if len(p.Tables) <= 2 {
				u.other = p.Tables[len(p.Tables)-1-i]
			}
			ix.preds[t] = append(ix.preds[t], u)
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

// bill is the evaluation cost of a join whose completed predicates cost ev
// per tuple of a left operand of card tuples. A join that completes none
// bills nothing, even on an operand whose cardinality overflowed; a
// negative ev is the rounding of a difference of sums that cancel.
func bill(ev, card float64) float64 {
	if ev <= 0 {
		return 0
	}
	return ev * card
}

// Along is the rule for walks that join the tables of each of orders
// (disjoint) consecutively in that order, as the hybrid stitcher does: a
// table's list drops the predicates over a table later in its order, which
// cannot complete when it joins.
func (ix *Index) Along(orders [][]int) *Index {
	n := ix.q.NumTables()
	part, step := make([]int, n), make([]int, n)
	for p, order := range orders {
		for i, t := range order {
			part[t], step[t] = p+1, i
		}
	}
	out := *ix
	out.preds = make([][]use, n)
	for t, uses := range ix.preds {
		for _, u := range uses {
			late := false
			for _, o := range ix.q.Predicates[u.pred].Tables {
				late = late || part[o] == part[t] && step[o] > step[t]
			}
			if !late {
				out.preds[t] = append(out.preds[t], u)
			}
		}
	}
	return &out
}

// Walk is the incremental reading of the rule: a left-deep pipeline that
// joins one table at a time. A lone first table stays at its raw
// cardinality; its filters complete with the first join.
type Walk struct {
	ix    *Index
	order []int // the tables joined so far, in join order, in the first size entries
	size  int
	at    []int   // table -> its position in order, valid while order holds it there
	cur   float64 // the pipeline's cardinality (raw while it holds one table)
	ev    float64 // evaluation cost per tuple of the predicates the last Add completed
}

// Walk starts an empty pipeline.
func (ix *Index) Walk() *Walk {
	n := ix.q.NumTables()
	return &Walk{ix: ix, at: make([]int, n), order: make([]int, n+1), cur: 1}
}

// Add joins table t and returns the new cardinality: selectivities of the
// predicates that completed multiply in ascending order, then the
// corrections of the groups that completed, ascending.
func (w *Walk) Add(t int) float64 { return w.join(t, true) }

// Peek is the cardinality Add(t) would return, leaving the walk as it is.
func (w *Walk) Peek(t int) float64 { return w.join(t, false) }

// Eval is the evaluation cost the last Add billed on a pipeline that
// entered it with outer tuples.
func (w *Walk) Eval(outer float64) float64 { return bill(w.ev, outer) }

// Done appends to dst the predicates the last Add completed, ascending.
func (w *Walk) Done(dst []int) []int {
	switch n := w.size; {
	case n == 2:
		for pi := range w.ix.q.Predicates {
			if w.predIn(pi, n) {
				dst = append(dst, pi)
			}
		}
	case n > 2:
		for _, u := range w.ix.preds[w.order[n-1]] {
			if w.in(&u, n) {
				dst = append(dst, u.pred)
			}
		}
	}
	return dst
}

// Seek rewinds the walk to its first k tables and joins tables after them
// unpriced, the caller stating card, the cardinality Add reached.
func (w *Walk) Seek(k int, tables []int, card float64) {
	w.size = k
	for _, t := range tables {
		w.at[t], w.order[w.size] = w.size, t
		w.size++
	}
	w.cur = card
}

// card is card(S) of the tables joined so far; for a lone table, its
// cardinality with its filters applied.
func (w *Walk) card() float64 {
	if w.size != 1 {
		return w.cur
	}
	return w.join(-1, false)
}

// join joins table t (none when t < 0) and applies every predicate and
// group that completes: those over t, and while the pipeline holds a lone
// table, that table's own.
func (w *Walk) join(t int, commit bool) float64 {
	ix := w.ix
	if w.size == 0 { // t enters at its raw cardinality
		c := ix.raw[t]
		if commit {
			w.at[t], w.order[0], w.size, w.cur, w.ev = 0, t, 1, c, 0
		}
		return c
	}
	c, ev, n := w.cur, 0.0, w.size
	if t >= 0 {
		c *= ix.raw[t]
		w.at[t], w.order[n] = n, t
		n++
	}
	if w.size == 1 {
		// Joined to a lone table, t completes every predicate and group
		// within the two, ascending.
		for pi, p := range ix.q.Predicates {
			if w.predIn(pi, n) {
				c *= p.Sel
				ev += p.EvalCostPerTuple
			}
		}
		for gi, g := range ix.q.Correlated {
			if w.groupIn(gi, n) {
				c *= g.CorrectionSel
			}
		}
	} else {
		uses := ix.preds[t]
		for i := range uses {
			if u := &uses[i]; w.in(u, n) {
				c *= u.sel
				ev += u.eval
			}
		}
		for _, gi := range ix.groupsOf(t) {
			if w.groupIn(gi, n) {
				c *= ix.q.Correlated[gi].CorrectionSel
			}
		}
	}
	if commit {
		w.size = n
		w.cur, w.ev = c, ev
	}
	return c
}

// in reports whether the predicate u reads is complete among the first n.
func (w *Walk) in(u *use, n int) bool {
	if u.other >= 0 {
		return w.has(u.other, n)
	}
	return w.predIn(u.pred, n)
}

// has reports whether table t is among the first n tables of the walk.
func (w *Walk) has(t, n int) bool {
	p := w.at[t]
	return p < n && w.order[p] == t
}

// predIn reports whether every table of predicate pi is among the first n.
func (w *Walk) predIn(pi, n int) bool {
	for _, t := range w.ix.q.Predicates[pi].Tables {
		if !w.has(t, n) {
			return false
		}
	}
	return true
}

// groupIn reports whether every predicate of group gi is complete among
// the first n tables.
func (w *Walk) groupIn(gi, n int) bool {
	for _, pi := range w.ix.q.Correlated[gi].Predicates {
		if !w.predIn(pi, n) {
			return false
		}
	}
	return true
}

// setCard is card(S) and ec(S) of a table set, walked in ascending table
// order so the product is the same float64 on every call: ec(S) is what
// the walk's joins bill.
func (ix *Index) setCard(tables []int) (card, ec float64) {
	ts := append([]int(nil), tables...)
	sort.Ints(ts)
	w := ix.Walk()
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			w.Add(t)
			ec += w.ev
		}
	}
	return w.card(), ec
}

// SubsetCard is the estimated cardinality of the join of a table subset:
// card(S) of the rule above. It is the per-node estimate the streaming
// executor compares measured join sizes against.
func SubsetCard(q *qopt.Query, tables []int) float64 {
	c, _ := NewIndex(q).setCard(tables)
	return c
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
	ec           []float64   // m -> ec(base ∪ m) of the billing rule; nil under C_out or when every predicate is free
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
	var evals [][]term // position -> the expensive predicates among its terms
	if ix.evals && !l.cout {
		evals = make([][]term, len(tables))
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
		for _, u := range ix.preds[t] {
			if m, ok := window(u.pred); ok {
				l.terms[i] = append(l.terms[i], term{m, u.sel})
				if evals != nil && u.eval > 0 {
					evals[i] = append(evals[i], term{m, u.eval})
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
	bw, ec := ix.Walk(), 0.0
	for _, t := range base {
		bw.Add(t)
		ec += bw.ev
	}
	l.card = make([]float64, 1<<uint(len(tables)))
	l.card[0] = bw.card()
	if evals != nil {
		l.ec = make([]float64, len(l.card))
		l.ec[0] = ec
	}
	for m := 1; m < len(l.card); m++ {
		low := bits.TrailingZeros(uint(m))
		c := l.card[m&(m-1)] * l.raw[low]
		for _, tm := range l.terms[low] {
			if tm.mask&^uint32(m) == 0 {
				c *= tm.f
			}
		}
		l.card[m] = c
		if l.ec != nil {
			ev := l.ec[m&(m-1)]
			for _, tm := range evals[low] {
				if tm.mask&^uint32(m) == 0 {
					ev += tm.f
				}
			}
			l.ec[m] = ev
		}
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
// the table's pages, plus the join's evaluation cost (Eval).
func (l *Lattice) Step(m uint32, i int, op cost.Operator) float64 {
	switch {
	case l.cout:
		return l.Result(m | 1<<uint(i))
	case m == 0 && len(l.base) == 0:
		return 0
	}
	c := cost.JoinCost(op, l.params.Pages(l.Operand(m)), l.pages[i], l.params)
	return c + l.Eval(m, 1<<uint(i))
}

// Eval is the evaluation cost billed where base ∪ a, the left operand,
// joins the window tables b: the bushy DP prices both orientations of a
// split with it. b is one table unless base is empty. Zero under C_out
// and when every predicate is free.
func (l *Lattice) Eval(a, b uint32) float64 {
	if l.ec == nil { // small enough to inline into the DPs' loops
		return 0
	}
	return l.eval(a, b)
}

func (l *Lattice) eval(a, b uint32) float64 {
	ev := l.ec[a|b]
	if l.lone(a) < 0 {
		ev -= l.ec[a]
	}
	if b&(b-1) != 0 {
		ev -= l.ec[b]
	}
	return bill(ev, l.Operand(a))
}
