// Package milp provides the modelling layer of the MILP solver: variables
// with bounds and types, linear constraints, and a minimisation objective.
// It plays the role of the solver API the paper uses Gurobi for — models
// are built programmatically, compiled, then handed to internal/bb.
package milp

import (
	"fmt"
	"math"

	"milpjoin/internal/simplex"
	"milpjoin/internal/sparse"
)

// VarType classifies a decision variable.
type VarType int8

const (
	// Continuous variables range over the reals within their bounds.
	Continuous VarType = iota
	// Integer variables must take integral values within their bounds.
	Integer
	// Binary variables are integer variables with bounds [0, 1].
	Binary
)

// Var is an opaque handle to a model variable.
type Var int

// Sense is a constraint comparison operator.
type Sense int8

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

// String renders the sense in LP-file notation.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Model is a mixed integer linear program under construction: minimize the
// objective subject to linear constraints and variable bounds/types.
type Model struct {
	Name string

	lb, ub   []float64
	obj      []float64
	vtype    []VarType
	varNames []string

	// The constraints, in one row store: row i holds
	// terms[rowEnd[i-1]:rowEnd[i]] (from 0 for row 0), sorted by variable,
	// one term per variable and no zero coefficient.
	terms    []term
	rowEnd   []int
	sense    []Sense
	rhs      []float64
	rowNames []string

	objConstant float64
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name}
}

// Reset empties the model and renames it, keeping the capacity of its
// storage, so that one model can be built again and again without growing
// anew. Names of the old variables and rows are dropped.
func (m *Model) Reset(name string) {
	clear(m.varNames)
	clear(m.rowNames)
	*m = Model{
		Name:     name,
		lb:       m.lb[:0],
		ub:       m.ub[:0],
		obj:      m.obj[:0],
		vtype:    m.vtype[:0],
		varNames: m.varNames[:0],
		terms:    m.terms[:0],
		rowEnd:   m.rowEnd[:0],
		sense:    m.sense[:0],
		rhs:      m.rhs[:0],
		rowNames: m.rowNames[:0],
	}
}

// AddVar adds a variable with the given bounds, objective coefficient,
// type, and name, returning its handle. Binary variables have their bounds
// clipped to [0, 1].
func (m *Model) AddVar(lb, ub, obj float64, vt VarType, name string) Var {
	if vt == Binary {
		lb = math.Max(lb, 0)
		ub = math.Min(ub, 1)
	}
	m.lb = append(m.lb, lb)
	m.ub = append(m.ub, ub)
	m.obj = append(m.obj, obj)
	m.vtype = append(m.vtype, vt)
	m.varNames = append(m.varNames, name)
	return Var(len(m.lb) - 1)
}

// AddBinary adds a binary variable with the given objective coefficient.
func (m *Model) AddBinary(obj float64, name string) Var {
	return m.AddVar(0, 1, obj, Binary, name)
}

// AddContinuous adds a continuous variable.
func (m *Model) AddContinuous(lb, ub, obj float64, name string) Var {
	return m.AddVar(lb, ub, obj, Continuous, name)
}

// AddConstr adds the constraint expr sense rhs and returns its index.
// The stored row is a compacted copy of expr's terms: sorted by variable,
// duplicates merged, zeros dropped.
func (m *Model) AddConstr(expr LinExpr, sense Sense, rhs float64, name string) int {
	for _, t := range expr.terms {
		if int(t.v) < 0 || int(t.v) >= len(m.lb) {
			panic(fmt.Sprintf("milp: constraint %q references unknown variable %d", name, t.v))
		}
	}
	lo := len(m.terms)
	m.terms = append(m.terms, expr.terms...)
	m.terms = m.terms[:lo+compact(m.terms[lo:])]
	m.rowEnd = append(m.rowEnd, len(m.terms))
	m.sense = append(m.sense, sense)
	m.rhs = append(m.rhs, rhs)
	m.rowNames = append(m.rowNames, name)
	return len(m.rowEnd) - 1
}

// row returns the terms of constraint i, capped so that an append to them
// cannot reach row i+1.
func (m *Model) row(i int) []term {
	lo, hi := 0, m.rowEnd[i]
	if i > 0 {
		lo = m.rowEnd[i-1]
	}
	return m.terms[lo:hi:hi]
}

// SetObjCoeff overwrites the objective coefficient of v.
func (m *Model) SetObjCoeff(v Var, c float64) { m.obj[v] = c }

// AddObjConstant adds a constant term to the objective (reported in
// solution objectives, irrelevant to the argmin).
func (m *Model) AddObjConstant(c float64) { m.objConstant += c }

// ObjConstant returns the accumulated objective constant.
func (m *Model) ObjConstant() float64 { return m.objConstant }

// SetBounds overwrites the bounds of v.
func (m *Model) SetBounds(v Var, lb, ub float64) {
	m.lb[v] = lb
	m.ub[v] = ub
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.lb) }

// NumConstrs returns the number of constraints.
func (m *Model) NumConstrs() int { return len(m.rowEnd) }

// NumIntVars returns the number of integer and binary variables.
func (m *Model) NumIntVars() int {
	c := 0
	for _, t := range m.vtype {
		if t != Continuous {
			c++
		}
	}
	return c
}

// VarName returns the name of v (or a synthetic one when unnamed).
func (m *Model) VarName(v Var) string {
	if n := m.varNames[v]; n != "" {
		return n
	}
	return fmt.Sprintf("x%d", int(v))
}

// VarType returns the type of v.
func (m *Model) VarType(v Var) VarType { return m.vtype[v] }

// Bounds returns the bounds of v.
func (m *Model) Bounds(v Var) (lb, ub float64) { return m.lb[v], m.ub[v] }

// ObjCoeff returns the objective coefficient of v.
func (m *Model) ObjCoeff(v Var) float64 { return m.obj[v] }

// IsIntegral reports whether v must take integral values.
func (m *Model) IsIntegral(v Var) bool { return m.vtype[v] != Continuous }

// Constr returns the components of constraint i. The expression is a view of
// the stored row; extending it copies.
func (m *Model) Constr(i int) (expr LinExpr, sense Sense, rhs float64, name string) {
	return LinExpr{terms: m.row(i)}, m.sense[i], m.rhs[i], m.rowNames[i]
}

// Snapshot captures variable/constraint counts, used by the experiment
// harness to regenerate Figure 1.
type Snapshot struct {
	Vars, IntVars, Constrs, Nonzeros int
}

// Stats returns a size snapshot of the model.
func (m *Model) Stats() Snapshot {
	return Snapshot{
		Vars:     m.NumVars(),
		IntVars:  m.NumIntVars(),
		Constrs:  m.NumConstrs(),
		Nonzeros: len(m.terms),
	}
}

// Computational is a model compiled to the equality form consumed by the
// simplex method, plus the metadata needed to interpret solutions.
type Computational struct {
	Problem *simplex.Problem
	// NumStructural is the number of original model variables; columns
	// NumStructural.. are logical (slack) columns, one per row.
	NumStructural int
	// Integral flags the structural columns that must be integral.
	Integral []bool
	// ColScale maps scaled structural values back to model space:
	// x_model[j] = ColScale[j] · x_scaled[j]. Integer columns always
	// have scale 1.
	ColScale []float64
}

// Unscale converts a scaled structural solution slice back to model space.
func (c *Computational) Unscale(scaled []float64) []float64 {
	out := make([]float64, len(scaled))
	for j, v := range scaled {
		out[j] = v * c.ColScale[j]
	}
	return out
}

// Compile converts the model into computational form: one logical column is
// appended per constraint so that the last m columns of A form an identity
// block, as the simplex solver requires. It is CompileInto on new storage.
func (m *Model) Compile() *Computational { return m.CompileInto(new(Computational)) }

// CompileInto compiles the model into dst, reusing the storage of the arrays
// dst holds (its Problem's A, B, C, L and U, Integral and ColScale) and
// returns dst. Every element of the result is written, whatever dst held
// before, so a Computational last compiled from another model gives the
// bits Compile gives. A is a new matrix header over the reused arrays: a
// simplex workspace that keyed a factorization by the old header cannot
// mistake the new contents for it.
//
// The constraint matrix is equilibrated first: alternating row and column
// scaling passes bring all coefficient magnitudes near 1, so that the
// solver's feasibility and optimality tolerances are meaningful even for
// models mixing unit and cardinality-scale coefficients (the MILP join
// encodings span 12+ orders of magnitude). Column scaling is applied only
// to continuous variables — integer columns keep scale 1 so integrality
// and branching are unaffected — and is undone via Computational.ColScale.
// The passes scale the compressed columns of the row store in place;
// entries scaled to exactly zero are then dropped.
func (m *Model) CompileInto(dst *Computational) *Computational {
	n, rows := m.NumVars(), m.NumConstrs()
	prob := dst.Problem
	if prob == nil {
		prob = new(simplex.Problem)
	}
	var old sparse.CSC
	if prob.A != nil {
		old = *prob.A
	}
	colPtr, rowInd, val := m.columns(rows, old.ColPtr, old.RowInd, old.Val)
	b := grow(prob.B, rows)
	copy(b, m.rhs)
	colScale := grow(dst.ColScale, n)
	for j := range colScale {
		colScale[j] = 1
	}
	l := grow(prob.L, n+rows)
	u := grow(prob.U, n+rows)
	c := grow(prob.C, n+rows)

	// The row scales live in the logical columns' lower bounds until
	// those are written below.
	rowScale := l[n:]
	for pass := 0; pass < 2; pass++ {
		// Rows: scale by the largest magnitude (only downward).
		for i := range rowScale {
			rowScale[i] = 1
		}
		for p, i := range rowInd {
			if a := math.Abs(val[p]); a > rowScale[i] {
				rowScale[i] = a
			}
		}
		for i, mx := range rowScale {
			rowScale[i] = 1 / mx // exactly 1 for a row left as it is
			b[i] *= rowScale[i]
		}
		for p, i := range rowInd {
			val[p] *= rowScale[i]
		}
		// Columns: rescale continuous variables whose largest
		// coefficient drifted far from 1.
		for j := 0; j < n; j++ {
			if m.vtype[j] != Continuous {
				continue
			}
			col := val[colPtr[j]:colPtr[j+1]]
			mx := 0.0
			for _, v := range col {
				if a := math.Abs(v); a > mx {
					mx = a
				}
			}
			s := 1 / mx // multiply column entries by s
			if (mx > 0.5 && mx < 2) || math.IsInf(s, 1) {
				continue // well scaled, empty, or too small to invert
			}
			for p := range col {
				col[p] *= s
			}
			// Multiplying column j by s substitutes x_scaled =
			// x_model/s, so x_model = s·x_scaled: accumulate s.
			colScale[j] *= s
		}
	}

	// Drop the entries scaled to exactly zero, then append the identity
	// block of the logical columns.
	q, lo := 0, 0
	for j := 0; j < n; j++ {
		hi := colPtr[j+1]
		for p := lo; p < hi; p++ {
			if val[p] != 0 {
				rowInd[q], val[q] = rowInd[p], val[p]
				q++
			}
		}
		lo, colPtr[j+1] = hi, q
	}
	rowInd, val = rowInd[:q], val[:q]
	for i := 0; i < rows; i++ {
		rowInd = append(rowInd, i)
		val = append(val, 1)
		colPtr[n+i+1] = len(rowInd)
	}

	integral := grow(dst.Integral, n)
	for j := 0; j < n; j++ {
		l[j] = m.lb[j] / colScale[j]
		u[j] = m.ub[j] / colScale[j]
		c[j] = m.obj[j] * colScale[j]
		integral[j] = m.vtype[j] != Continuous
	}
	for i, sense := range m.sense {
		switch sense {
		case LE:
			l[n+i], u[n+i] = 0, math.Inf(1)
		case GE:
			l[n+i], u[n+i] = math.Inf(-1), 0
		default: // EQ
			l[n+i], u[n+i] = 0, 0
		}
		c[n+i] = 0
	}
	*prob = simplex.Problem{
		A: sparse.NewCSC(rows, n+rows, colPtr, rowInd, val),
		B: b, C: c, L: l, U: u,
	}
	*dst = Computational{
		Problem:       prob,
		NumStructural: n,
		Integral:      integral,
		ColScale:      colScale,
	}
	return dst
}

// columns transposes the row store into compressed columns, unscaled, with
// room for spare more columns of one entry each, in the storage of the
// given arrays where it is large enough. Rows are read in ascending order,
// so every column comes out sorted by row, one entry per row.
func (m *Model) columns(spare int, colPtr, rowInd []int, val []float64) ([]int, []int, []float64) {
	n, nnz := m.NumVars(), len(m.terms)
	colPtr = grow(colPtr, n+spare+1)
	clear(colPtr)
	for _, t := range m.terms {
		colPtr[t.v+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	if cap(rowInd) < nnz+spare {
		rowInd = make([]int, nnz, nnz+spare)
	}
	if cap(val) < nnz+spare {
		val = make([]float64, nnz, nnz+spare)
	}
	rowInd, val = rowInd[:nnz], val[:nnz]
	// colPtr[j] is column j's fill cursor; once every row is in, it holds
	// the column's end, and shifting colPtr by one restores the starts.
	for i := range m.rowEnd {
		for _, t := range m.row(i) {
			p := colPtr[t.v]
			rowInd[p], val[p] = i, t.c
			colPtr[t.v]++
		}
	}
	copy(colPtr[1:n+1], colPtr[:n])
	colPtr[0] = 0
	return colPtr, rowInd, val
}

// grow returns s with length n, reusing its storage when it is large
// enough. The elements are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solution is a variable assignment with its objective value.
type Solution struct {
	Values []float64 // indexed by Var, length NumVars
	Obj    float64   // objective including the model constant
}

// Value returns the value of v in the solution.
func (s *Solution) Value(v Var) float64 { return s.Values[v] }

// EvalObjective computes the objective of an assignment under this model.
func (m *Model) EvalObjective(values []float64) float64 {
	obj := m.objConstant
	for j, c := range m.obj {
		obj += c * values[j]
	}
	return obj
}

// CheckFeasible verifies that values satisfies all bounds, integrality
// requirements, and constraints within tol. It returns a descriptive error
// for the first violation found, or nil.
func (m *Model) CheckFeasible(values []float64, tol float64) error {
	if len(values) != m.NumVars() {
		return fmt.Errorf("milp: assignment has %d values, want %d", len(values), m.NumVars())
	}
	// Every test is written so that NaN fails it.
	for j, v := range values {
		if !(v >= m.lb[j]-tol && v <= m.ub[j]+tol) {
			return fmt.Errorf("milp: %s = %g outside [%g, %g]", m.VarName(Var(j)), v, m.lb[j], m.ub[j])
		}
		if m.vtype[j] != Continuous && !(math.Abs(v-math.Round(v)) <= tol) {
			return fmt.Errorf("milp: %s = %g is fractional", m.VarName(Var(j)), v)
		}
	}
	for i, rhs := range m.rhs {
		var lhs float64
		for _, t := range m.row(i) {
			lhs += t.c * values[t.v]
		}
		scale := 1 + math.Abs(rhs)
		switch m.sense[i] {
		case LE:
			if !(lhs <= rhs+tol*scale) {
				return fmt.Errorf("milp: constraint %d (%s): %g > %g", i, m.rowNames[i], lhs, rhs)
			}
		case GE:
			if !(lhs >= rhs-tol*scale) {
				return fmt.Errorf("milp: constraint %d (%s): %g < %g", i, m.rowNames[i], lhs, rhs)
			}
		case EQ:
			if !(math.Abs(lhs-rhs) <= tol*scale) {
				return fmt.Errorf("milp: constraint %d (%s): %g != %g", i, m.rowNames[i], lhs, rhs)
			}
		}
	}
	if obj := m.EvalObjective(values); math.IsNaN(obj) {
		return fmt.Errorf("milp: objective is NaN")
	}
	return nil
}
