package core

import (
	"fmt"
	"math"
	"slices"

	"milpjoin/internal/cost"
	"milpjoin/internal/milp"
	"milpjoin/internal/qopt"
)

// Encoding is a query compiled to a MILP model, retaining the variable
// handles needed to decode solutions back into query plans.
type Encoding struct {
	Query *qopt.Query
	Opts  Options
	Model *milp.Model

	// J is the number of joins (n − 1).
	J int
	// Thresholds is the cardinality ladder θ_0 < θ_1 < … used for the
	// outer-operand approximation.
	Thresholds []float64

	// Variable handles, all indexed by join j first. A value of -1
	// marks a handle that does not exist for that index.
	TIO [][]milp.Var // [j][t]: table t in outer operand of join j
	TII [][]milp.Var // [j][t]: table t in inner operand of join j
	PAO [][]milp.Var // [j][p]: predicate p applicable in outer of join j (j ≥ 1)
	PAG [][]milp.Var // [j][g]: correlated group g complete in outer of join j (j ≥ 1)
	LCO []milp.Var   // [j]: log10 cardinality of outer operand (j ≥ 1)
	CTO [][]milp.Var // [j][r]: cardinality threshold r reached (j ≥ 1)
	CI  []milp.Var   // [j]: exact cardinality of inner operand

	// Extension handles (nil when the extension is off).
	JOS [][]milp.Var // [j][i]: operator i selected for join j
	OHP []milp.Var   // [j]: outer operand of join j is sorted
	PCO [][]milp.Var // [j][p]: predicate p evaluated during join j; -1 for a free one
	// AJC[j][i] is the actual-cost variable of operator i at join j.
	AJC [][]milp.Var
	// BLOCKS[j] and BNLZ[j][t] are the block-nested-loop auxiliaries:
	// the ⌈pg_outer/buffer⌉ count and its product with tii.
	BLOCKS []milp.Var
	BNLZ   [][]milp.Var

	// ops lists the operator implementations when ChooseOperators is on.
	ops []cost.Operator
	// prods lists the products of binaries priceOuter linearised.
	prods []product

	// derived data shared by the encoder parts.
	params   cost.Params // the default physical constants, read once
	effCard  []float64   // per-table cardinality with unary predicates folded in
	binPreds []int       // predicate indices with ≥ 2 tables
	lcoMax   float64
	lcoMin   float64

	// Storage an encoding keeps from one query to the next (see reset).
	comp  milp.Computational // the compiled model Optimize solves
	row   milp.LinExpr       // the constraint row under construction
	cost  milp.LinExpr       // the cost expression under construction
	vars  []milp.Var         // backing array of the handle slices
	lists [][]milp.Var       // backing array of the per-join handle lists
}

// Encode transforms the query into a MILP model. The encoding is the
// caller's.
func Encode(q *qopt.Query, opts Options) (*Encoding, error) {
	e := &Encoding{Model: milp.NewModel("")}
	if err := e.encode(q, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// encode transforms the query into e's model, reusing e's storage.
func (e *Encoding) encode(q *qopt.Query, opts Options) error {
	if err := q.Validate(); err != nil {
		return err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	if opts.InterestingOrders && !opts.ChooseOperators {
		return fmt.Errorf("core: InterestingOrders requires ChooseOperators")
	}

	e.reset()
	e.Query, e.Opts, e.J = q, opts, q.NumJoins()
	e.Model.Reset(fmt.Sprintf("join-order-%d-tables", q.NumTables()))
	e.prepare()
	e.Thresholds = opts.thresholds(e.lcoMax)

	e.addJoinOrderVars()
	e.addJoinOrderConstraints()
	e.addPredicateVars()
	e.addCardinalityVars()

	if opts.ChooseOperators {
		if err := e.addOperatorSelection(); err != nil {
			return err
		}
	} else {
		e.addFixedObjective()
	}
	if opts.Metric == cost.OperatorCost {
		e.addExpensivePredicates()
	}
	return nil
}

// reset empties the encoding for another query, keeping the storage of
// its compiled form, scratch expressions, handle slices and derived data
// (the model is reset apart, with its name). It keeps no pointer into the
// query or the options it encoded.
func (e *Encoding) reset() {
	clear(e.lists)
	*e = Encoding{
		Model:    e.Model,
		effCard:  e.effCard[:0],
		binPreds: e.binPreds[:0],
		prods:    e.prods[:0],
		comp:     e.comp,
		row:      e.row.Reset(),
		cost:     e.cost.Reset(),
		vars:     e.vars[:0],
		lists:    e.lists[:0],
	}
}

// handles returns n handles, each -1 (absent), carved from e's storage.
func (e *Encoding) handles(n int) []milp.Var {
	lo := len(e.vars)
	e.vars = slices.Grow(e.vars, n)[:lo+n]
	hs := e.vars[lo : lo+n : lo+n]
	for i := range hs {
		hs[i] = -1
	}
	return hs
}

// handleLists returns one nil handle list per join, carved from e's
// storage.
func (e *Encoding) handleLists() [][]milp.Var {
	lo := len(e.lists)
	e.lists = slices.Grow(e.lists, e.J)[:lo+e.J]
	ls := e.lists[lo : lo+e.J : lo+e.J]
	clear(ls)
	return ls
}

// addRow adds the constraint row sense rhs and keeps row's storage for the
// next one: rows are built in e.row, emptied by Reset, and AddConstr copies
// them, so one expression's storage serves every row.
func (e *Encoding) addRow(row milp.LinExpr, sense milp.Sense, rhs float64, name string) {
	e.row = row
	e.Model.AddConstr(row, sense, rhs, name)
}

// prepare reads the default physical constants and computes effective
// cardinalities (unary predicates folded into their table, i.e. selections
// pushed to the scans) and the lco range.
func (e *Encoding) prepare() {
	e.params = cost.Params{}.WithDefaults()
	q := e.Query
	n := q.NumTables()
	for t := 0; t < n; t++ {
		e.effCard = append(e.effCard, q.Tables[t].Card)
	}
	for pi, p := range q.Predicates {
		if len(p.Tables) == 1 {
			e.effCard[p.Tables[0]] *= p.Sel
		} else {
			e.binPreds = append(e.binPreds, pi)
		}
	}
	// lco is a weighted sum of binaries; valid bounds are the sums of its
	// positive and negative coefficients respectively.
	for t := 0; t < n; t++ {
		if e.effCard[t] < 1e-6 {
			e.effCard[t] = 1e-6 // keep logs finite
		}
		lc := math.Log10(e.effCard[t])
		e.lcoMax += math.Max(0, lc)
		e.lcoMin += math.Min(0, lc)
	}
	for _, pi := range e.binPreds {
		e.lcoMin += q.LogSel(pi)
	}
	for _, g := range q.Correlated {
		lg := math.Log10(g.CorrectionSel)
		e.lcoMax += math.Max(0, lg)
		e.lcoMin += math.Min(0, lg)
	}
	e.lcoMin -= 1 // slack for rounding
}

func (e *Encoding) effLogCard(t int) float64 { return math.Log10(e.effCard[t]) }

// addJoinOrderVars introduces tio/tii (Table 1, rows 1–2).
func (e *Encoding) addJoinOrderVars() {
	n := e.Query.NumTables()
	e.TIO = e.handleLists()
	e.TII = e.handleLists()
	for j := 0; j < e.J; j++ {
		e.TIO[j] = e.handles(n)
		e.TII[j] = e.handles(n)
		for t := 0; t < n; t++ {
			e.TIO[j][t] = e.Model.AddBinary(0, fmt.Sprintf("tio_%s_%d", e.Query.TableName(t), j))
			e.TII[j][t] = e.Model.AddBinary(0, fmt.Sprintf("tii_%s_%d", e.Query.TableName(t), j))
		}
	}
}

// addJoinOrderConstraints emits the structural constraints of Table 2:
// single-table operands, no overlap, and the left-deep chaining rule.
func (e *Encoding) addJoinOrderConstraints() {
	n := e.Query.NumTables()

	// One table forms the outer operand of the first join.
	e.addRow(e.sum(e.TIO[0]), milp.EQ, 1, "outer0_single")
	// One table forms every inner operand.
	for j := 0; j < e.J; j++ {
		e.addRow(e.sum(e.TII[j]), milp.EQ, 1, fmt.Sprintf("inner%d_single", j))
	}
	// Operands of the same join cannot overlap.
	for j := 0; j < e.J; j++ {
		for t := 0; t < n; t++ {
			e.addRow(e.row.Reset().Add(e.TIO[j][t], 1).Add(e.TII[j][t], 1), milp.LE, 1,
				fmt.Sprintf("nooverlap_%d_%d", j, t))
		}
	}
	// The next outer operand is the previous join's result.
	for j := 1; j < e.J; j++ {
		for t := 0; t < n; t++ {
			e.addRow(e.row.Reset().Add(e.TIO[j][t], 1).Add(e.TIO[j-1][t], -1).Add(e.TII[j-1][t], -1),
				milp.EQ, 0, fmt.Sprintf("chain_%d_%d", j, t))
		}
	}
}

// sum returns the row Σ v over vars, in the scratch expression.
func (e *Encoding) sum(vars []milp.Var) milp.LinExpr {
	row := e.row.Reset()
	for _, v := range vars {
		row = row.Add(v, 1)
	}
	return row
}

// addPredicateVars introduces pao (and correlated-group pag) variables with
// their applicability constraints. Outer operands of join 0 hold a single
// table, so predicate variables start at join 1.
func (e *Encoding) addPredicateVars() {
	q := e.Query
	m := e.Model
	e.PAO = e.handleLists()
	e.PAG = e.handleLists()
	for j := 1; j < e.J; j++ {
		e.PAO[j] = e.handles(len(q.Predicates))
		for _, pi := range e.binPreds {
			v := m.AddBinary(0, fmt.Sprintf("pao_p%d_%d", pi, j))
			e.PAO[j][pi] = v
			for _, t := range q.Predicates[pi].Tables {
				e.addRow(e.row.Reset().Add(v, 1).Add(e.TIO[j][t], -1), milp.LE, 0,
					fmt.Sprintf("papp_p%d_%d_t%d", pi, j, t))
			}
		}

		e.PAG[j] = e.handles(len(q.Correlated))
		for gi, g := range q.Correlated {
			v := m.AddBinary(0, fmt.Sprintf("pag_g%d_%d", gi, j))
			e.PAG[j][gi] = v
			// Forced to one when all member predicates are applied:
			// pag ≥ 1 − |G| + Σ pao.
			ge := e.row.Reset().Add(v, 1)
			for _, pi := range g.Predicates {
				ge = ge.Add(e.PAO[j][pi], -1)
			}
			e.addRow(ge, milp.GE, 1-float64(len(g.Predicates)), fmt.Sprintf("gfull_g%d_%d", gi, j))
			// Forced to zero when any member predicate is missing.
			for _, pi := range g.Predicates {
				e.addRow(e.row.Reset().Add(v, 1).Add(e.PAO[j][pi], -1), milp.LE, 0,
					fmt.Sprintf("gmem_g%d_%d_p%d", gi, j, pi))
			}
		}
	}
}

// addCardinalityVars introduces ci (exact inner cardinalities), lco
// (logarithmic outer cardinalities) and the threshold variables cto
// (Section 4.2). The approximated outer cardinality co_j is the ladder over
// cto_j, which every cost term embeds instead of a co variable.
func (e *Encoding) addCardinalityVars() {
	q := e.Query
	m := e.Model
	n := q.NumTables()

	maxEff := 0.0
	for t := 0; t < n; t++ {
		if e.effCard[t] > maxEff {
			maxEff = e.effCard[t]
		}
	}

	// Inner operand cardinalities: ci_j = Σ_t Card(t)·tii_tj.
	e.CI = e.handles(e.J)
	for j := 0; j < e.J; j++ {
		e.CI[j] = m.AddContinuous(0, maxEff, 0, fmt.Sprintf("ci_%d", j))
		expr := e.row.Reset().Add(e.CI[j], 1)
		for t := 0; t < n; t++ {
			expr = expr.Add(e.TII[j][t], -e.effCard[t])
		}
		e.addRow(expr, milp.EQ, 0, fmt.Sprintf("cidef_%d", j))
	}

	// Joins 1…J−1: logarithmic cardinality, thresholds, approximation.
	e.LCO = e.handles(e.J)
	e.CTO = e.handleLists()
	for j := 1; j < e.J; j++ {
		e.LCO[j] = m.AddContinuous(e.lcoMin, e.lcoMax, 0, fmt.Sprintf("lco_%d", j))
		expr := e.row.Reset().Add(e.LCO[j], 1)
		for t := 0; t < n; t++ {
			expr = expr.Add(e.TIO[j][t], -e.effLogCard(t))
		}
		for _, pi := range e.binPreds {
			expr = expr.Add(e.PAO[j][pi], -q.LogSel(pi))
		}
		for gi, g := range q.Correlated {
			expr = expr.Add(e.PAG[j][gi], -math.Log10(g.CorrectionSel))
		}
		e.addRow(expr, milp.EQ, 0, fmt.Sprintf("lcodef_%d", j))

		// Threshold activation: lco_j − M_r·cto_jr ≤ log θ_r.
		e.CTO[j] = e.handles(len(e.Thresholds))
		for r, th := range e.Thresholds {
			v := m.AddBinary(0, fmt.Sprintf("cto_%d_%d", j, r))
			e.CTO[j][r] = v
			logTh := math.Log10(th)
			bigM := math.Max(e.lcoMax-logTh, 0) + 1
			e.addRow(e.row.Reset().Add(e.LCO[j], 1).Add(v, -bigM), milp.LE, logTh,
				fmt.Sprintf("cthr_%d_%d", j, r))
			// Ladder ordering strengthens the LP relaxation.
			if r > 0 {
				e.addRow(e.row.Reset().Add(v, 1).Add(e.CTO[j][r-1], -1), milp.LE, 0,
					fmt.Sprintf("cord_%d_%d", j, r))
			}
		}
	}
}

// coMax returns the largest value the approximated outer cardinality can
// take: the top of the threshold ladder. All big-M linearisations involving
// co use this bound.
func (e *Encoding) coMax() float64 {
	if len(e.Thresholds) == 0 {
		return 1
	}
	return e.Thresholds[len(e.Thresholds)-1]
}

// ladder approximates a monotone function g of the outer cardinality using
// the threshold variables: g(card) ≈ base + Σ_r deltas[r]·cto_r, where
// base = g(1) and deltas[r] = g(θ_r) − g(θ_{r−1}).
func (e *Encoding) ladder(g func(card float64) float64) (base float64, deltas []float64) {
	base = g(1)
	deltas = make([]float64, len(e.Thresholds))
	prev := base
	for r, th := range e.Thresholds {
		cur := g(th)
		deltas[r] = cur - prev
		prev = cur
	}
	return base, deltas
}

// outerCost appends to the cost expression e.cost the linear part of the
// approximated outer-operand cost of join j under cost function g
// (monotone in the operand cardinality), and returns its constant. Join 0
// is priced exactly per candidate table.
func (e *Encoding) outerCost(j int, g func(card float64) float64) float64 {
	if j == 0 {
		for t := 0; t < e.Query.NumTables(); t++ {
			e.cost = e.cost.Add(e.TIO[0][t], g(e.effCard[t]))
		}
		return 0
	}
	base, deltas := e.ladder(g)
	for r := range e.Thresholds {
		e.cost = e.cost.Add(e.CTO[j][r], deltas[r])
	}
	return base
}

// product records u = x·b for binaries x and b, as priceOuter links it.
type product struct{ u, x, b milp.Var }

// priceOuter adds k·b·card(outer_j) to the objective for a binary b, the
// way plan.Evaluate bills a join's outer operand: join 0's is one table at
// its raw cardinality, a later one the ladder 1 + Σ_r δ_r·cto_{j,r}. The
// product is priced rung by rung: each x·b, x a binary of the sum, is a
// continuous u ≥ x + b − 1, u ≥ 0, which minimisation presses onto it, so
// every linking row has unit coefficients whatever the cardinality scale.
func (e *Encoding) priceOuter(j int, b milp.Var, k float64, name string) {
	m := e.Model
	link := func(x milp.Var, c float64, r int) {
		u := m.AddContinuous(0, 1, k*c, fmt.Sprintf("%s_%d", name, r))
		e.addRow(e.row.Reset().Add(u, 1).Add(x, -1).Add(b, -1), milp.GE, -1, fmt.Sprintf("%sdef_%d", name, r))
		e.prods = append(e.prods, product{u, x, b})
	}
	if j == 0 {
		for t, tb := range e.Query.Tables {
			link(e.TIO[0][t], tb.Card, t)
		}
		return
	}
	base, deltas := e.ladder(func(c float64) float64 { return c })
	m.SetObjCoeff(b, m.ObjCoeff(b)+k*base)
	for r, d := range deltas {
		link(e.CTO[j][r], d, r)
	}
}

// innerCost appends to the cost expression e.cost the exact inner-operand
// cost of join j, with per-table cost function gt.
func (e *Encoding) innerCost(j int, gt func(t int) float64) {
	for t := 0; t < e.Query.NumTables(); t++ {
		e.cost = e.cost.Add(e.TII[j][t], gt(t))
	}
}

// addFixedObjective installs the objective for the basic model: C_out or a
// single fixed operator's cost summed over all joins (Section 4.3).
func (e *Encoding) addFixedObjective() {
	switch e.Opts.Metric {
	case cost.Cout:
		// Σ_{j≥1} co_j: the sum of intermediate result cardinalities
		// (the final result is constant across plans and excluded).
		// The ladder goes directly into the objective so no equality
		// row has to mix unit and cardinality-scale coefficients.
		for j := 1; j < e.J; j++ {
			e.cost = e.cost.Reset()
			e.addCostToObjective(e.outerCost(j, func(card float64) float64 { return card }))
		}
	case cost.OperatorCost:
		for j := 0; j < e.J; j++ {
			e.cost = e.cost.Reset()
			e.addCostToObjective(e.operatorCost(j, e.Opts.Op))
		}
	}
}

// addCostToObjective adds the cost expression e.cost plus the constant c to
// the objective.
func (e *Encoding) addCostToObjective(c float64) {
	m := e.Model
	e.cost.Terms(func(v milp.Var, coef float64) {
		m.SetObjCoeff(v, m.ObjCoeff(v)+coef)
	})
	m.AddObjConstant(c)
}

// operatorCost appends to the cost expression e.cost the affine cost of
// running operator op for join j, and returns its constant. For the block
// nested loop join it introduces the linearisation variables for the
// blocks×inner-pages product (Section 4.3).
func (e *Encoding) operatorCost(j int, op cost.Operator) float64 {
	p := e.params
	pages := func(card float64) float64 { return p.Pages(card) }

	switch op {
	case cost.HashJoin:
		c := e.outerCost(j, func(card float64) float64 { return 3 * pages(card) })
		e.innerCost(j, func(t int) float64 { return 3 * pages(e.effCard[t]) })
		return c
	case cost.SortMergeJoin:
		smj := func(card float64) float64 { return cost.SortMergeInput(pages(card)) }
		c := e.outerCost(j, smj)
		e.innerCost(j, func(t int) float64 { return smj(e.effCard[t]) })
		return c
	case cost.BlockNestedLoopJoin:
		return e.bnlCost(j)
	default:
		panic(fmt.Sprintf("core: unsupported operator %v", op))
	}
}

// bnlCost prices a block nested loop join into the cost expression e.cost:
// scanning the outer plus blocks·innerPages, where blocks =
// ⌈pg_outer/buffer⌉. The product of the binary tii with the continuous
// blocks variable is linearised with one auxiliary variable per table (the
// paper's second representation, linear in the number of tables).
func (e *Encoding) bnlCost(j int) float64 {
	m := e.Model
	p := e.params
	n := e.Query.NumTables()
	blocksOf := e.blocksOf
	maxBlocks := math.Max(blocksOf(e.coMax()), blocksOf(maxSlice(e.effCard)))

	if e.BLOCKS == nil {
		e.BLOCKS = e.handles(e.J)
		e.BNLZ = e.handleLists()
	}

	// blocks_j as a continuous variable.
	blocks := m.AddContinuous(1, maxBlocks, 0, fmt.Sprintf("blocks_%d", j))
	e.BLOCKS[j] = blocks
	e.BNLZ[j] = e.handles(n)
	if j == 0 {
		expr := e.row.Reset().Add(blocks, 1)
		for t := 0; t < n; t++ {
			expr = expr.Add(e.TIO[0][t], -blocksOf(e.effCard[t]))
		}
		e.addRow(expr, milp.EQ, 0, "blocksdef_0")
	} else {
		base, deltas := e.ladder(blocksOf)
		expr := e.row.Reset().Add(blocks, 1)
		for r := range e.Thresholds {
			expr = expr.Add(e.CTO[j][r], -deltas[r])
		}
		e.addRow(expr, milp.EQ, base, fmt.Sprintf("blocksdef_%d", j))
	}

	// z_t = tii_t · blocks, linearised from below (cost minimisation
	// pushes z down, so only the lower bounds are needed):
	// z ≥ 0 and z ≥ blocks − maxBlocks·(1 − tii).
	for t := 0; t < n; t++ {
		z := m.AddContinuous(0, maxBlocks, 0, fmt.Sprintf("bnlz_%d_%d", j, t))
		e.BNLZ[j][t] = z
		e.addRow(e.row.Reset().Add(z, 1).Add(blocks, -1).Add(e.TII[j][t], -maxBlocks),
			milp.GE, -maxBlocks, fmt.Sprintf("bnlzlb_%d_%d", j, t))
		e.cost = e.cost.Add(z, p.Pages(e.effCard[t]))
	}
	// Plus scanning the outer operand once.
	return e.outerCost(j, func(card float64) float64 { return p.Pages(card) })
}

// blocksOf returns ⌈pages(card)/buffer⌉, at least 1 — the outer-loop count
// of a block nested loop join.
func (e *Encoding) blocksOf(card float64) float64 {
	p := e.params
	b := math.Ceil(p.Pages(card) / p.BufferPages)
	if b < 1 {
		b = 1
	}
	return b
}

func maxSlice(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
