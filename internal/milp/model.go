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

	constrs     []constraint
	objConstant float64
}

type constraint struct {
	expr  LinExpr
	sense Sense
	rhs   float64
	name  string
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name}
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
func (m *Model) AddConstr(expr LinExpr, sense Sense, rhs float64, name string) int {
	for _, v := range expr.vars {
		if int(v) < 0 || int(v) >= len(m.lb) {
			panic(fmt.Sprintf("milp: constraint %q references unknown variable %d", name, v))
		}
	}
	m.constrs = append(m.constrs, constraint{expr: expr.compacted(), sense: sense, rhs: rhs, name: name})
	return len(m.constrs) - 1
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
func (m *Model) NumConstrs() int { return len(m.constrs) }

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

// Constr returns the components of constraint i.
func (m *Model) Constr(i int) (expr LinExpr, sense Sense, rhs float64, name string) {
	c := m.constrs[i]
	return c.expr, c.sense, c.rhs, c.name
}

// Snapshot captures variable/constraint counts, used by the experiment
// harness to regenerate Figure 1.
type Snapshot struct {
	Vars, IntVars, Constrs, Nonzeros int
}

// Stats returns a size snapshot of the model.
func (m *Model) Stats() Snapshot {
	nz := 0
	for _, c := range m.constrs {
		nz += len(c.expr.vars)
	}
	return Snapshot{
		Vars:     m.NumVars(),
		IntVars:  m.NumIntVars(),
		Constrs:  m.NumConstrs(),
		Nonzeros: nz,
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
// block, as the simplex solver requires.
//
// The constraint matrix is equilibrated first: alternating row and column
// scaling passes bring all coefficient magnitudes near 1, so that the
// solver's feasibility and optimality tolerances are meaningful even for
// models mixing unit and cardinality-scale coefficients (the MILP join
// encodings span 12+ orders of magnitude). Column scaling is applied only
// to continuous variables — integer columns keep scale 1 so integrality
// and branching are unaffected — and is undone via Computational.ColScale.
func (m *Model) Compile() *Computational {
	n := m.NumVars()
	rows := m.NumConstrs()
	eq := m.equilibrate()

	l := make([]float64, n+rows)
	u := make([]float64, n+rows)
	c := make([]float64, n+rows)
	for j := 0; j < n; j++ {
		l[j] = m.lb[j] / eq.colScale[j]
		u[j] = m.ub[j] / eq.colScale[j]
		c[j] = m.obj[j] * eq.colScale[j]
	}
	for i, con := range m.constrs {
		switch con.sense {
		case LE:
			l[n+i], u[n+i] = 0, math.Inf(1)
		case GE:
			l[n+i], u[n+i] = math.Inf(-1), 0
		case EQ:
			l[n+i], u[n+i] = 0, 0
		}
	}

	// The matrix in compressed columns, straight from the column index: a
	// row's terms name distinct variables (AddConstr compacts them) and the
	// index lists a column's rows in ascending order, so every column comes
	// out sorted and free of duplicates. Entries scaled to exactly zero are
	// dropped. The identity block of the logical columns follows.
	nnz := rows
	for _, con := range m.constrs {
		nnz += len(con.expr.vars)
	}
	colPtr := make([]int, n+rows+1)
	rowInd := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for j, col := range eq.colEntries {
		for _, e := range col {
			if v := eq.coefs[e.i][e.k]; v != 0 {
				rowInd = append(rowInd, e.i)
				val = append(val, v)
			}
		}
		colPtr[j+1] = len(rowInd)
	}
	for i := 0; i < rows; i++ {
		rowInd = append(rowInd, i)
		val = append(val, 1)
		colPtr[n+i+1] = len(rowInd)
	}

	integral := make([]bool, n)
	for j := 0; j < n; j++ {
		integral[j] = m.vtype[j] != Continuous
	}
	return &Computational{
		Problem: &simplex.Problem{
			A: sparse.NewCSC(rows, n+rows, colPtr, rowInd, val),
			B: eq.b, C: c, L: l, U: u,
		},
		NumStructural: n,
		Integral:      integral,
		ColScale:      eq.colScale,
	}
}

// equilibrated is a model's constraint rows after equilibration: the scaled
// coefficients of each row's terms, the scaled right-hand sides, the column
// scales, and the index from each variable to its terms.
type equilibrated struct {
	coefs      [][]float64 // coefs[i][k] scales term k of row i
	b          []float64
	colScale   []float64
	colEntries [][]colEntry // ascending by row
}

// colEntry locates one coefficient of a column: term k of row i.
type colEntry struct{ i, k int }

// equilibrate runs Compile's row and column scaling passes on a working copy
// of the rows.
func (m *Model) equilibrate() equilibrated {
	n := m.NumVars()
	rows := m.NumConstrs()

	// Working copy of the rows for scaling, in one array.
	total := 0
	for _, con := range m.constrs {
		total += len(con.expr.vars)
	}
	all := make([]float64, 0, total)
	coefs := make([][]float64, rows)
	b := make([]float64, rows)
	for i, con := range m.constrs {
		all = append(all, con.expr.coefs...)
		coefs[i] = all[len(all)-len(con.expr.coefs):]
		b[i] = con.rhs
	}

	colScale := make([]float64, n)
	for j := range colScale {
		colScale[j] = 1
	}

	// Column index: for each variable, the (row, position) of its
	// coefficients, ascending by row. Built once, into one array sized by a
	// count per column; the structure never changes.
	colEntries := make([][]colEntry, n)
	count := make([]int, n)
	for _, con := range m.constrs {
		for _, v := range con.expr.vars {
			count[v]++
		}
	}
	entries := make([]colEntry, total)
	off := 0
	for j, c := range count {
		colEntries[j] = entries[off : off : off+c]
		off += c
	}
	for i, con := range m.constrs {
		for k, v := range con.expr.vars {
			colEntries[v] = append(colEntries[v], colEntry{i, k})
		}
	}

	// Alternate row and column equilibration passes.
	for pass := 0; pass < 2; pass++ {
		// Rows: scale by the largest magnitude (only downward).
		for i := range coefs {
			mx := 1.0
			for k := range coefs[i] {
				if a := math.Abs(coefs[i][k]); a > mx {
					mx = a
				}
			}
			if mx > 1 {
				inv := 1 / mx
				for k := range coefs[i] {
					coefs[i][k] *= inv
				}
				b[i] *= inv
			}
		}
		// Columns: rescale continuous variables whose largest
		// coefficient drifted far from 1.
		for j := 0; j < n; j++ {
			if m.vtype[j] != Continuous || len(colEntries[j]) == 0 {
				continue
			}
			mx := 0.0
			for _, e := range colEntries[j] {
				if a := math.Abs(coefs[e.i][e.k]); a > mx {
					mx = a
				}
			}
			if mx == 0 || (mx > 0.5 && mx < 2) {
				continue // already well scaled
			}
			s := 1 / mx // multiply column entries by s
			for _, e := range colEntries[j] {
				coefs[e.i][e.k] *= s
			}
			// Multiplying column j by s substitutes x_scaled =
			// x_model/s, so x_model = s·x_scaled: accumulate s.
			colScale[j] *= s
		}
	}
	return equilibrated{coefs: coefs, b: b, colScale: colScale, colEntries: colEntries}
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
	for j, v := range values {
		if v < m.lb[j]-tol || v > m.ub[j]+tol {
			return fmt.Errorf("milp: %s = %g outside [%g, %g]", m.VarName(Var(j)), v, m.lb[j], m.ub[j])
		}
		if m.vtype[j] != Continuous && math.Abs(v-math.Round(v)) > tol {
			return fmt.Errorf("milp: %s = %g is fractional", m.VarName(Var(j)), v)
		}
	}
	for i, con := range m.constrs {
		var lhs float64
		for k, v := range con.expr.vars {
			lhs += con.expr.coefs[k] * values[v]
		}
		scale := 1 + math.Abs(con.rhs)
		switch con.sense {
		case LE:
			if lhs > con.rhs+tol*scale {
				return fmt.Errorf("milp: constraint %d (%s): %g > %g", i, con.name, lhs, con.rhs)
			}
		case GE:
			if lhs < con.rhs-tol*scale {
				return fmt.Errorf("milp: constraint %d (%s): %g < %g", i, con.name, lhs, con.rhs)
			}
		case EQ:
			if math.Abs(lhs-con.rhs) > tol*scale {
				return fmt.Errorf("milp: constraint %d (%s): %g != %g", i, con.name, lhs, con.rhs)
			}
		}
	}
	return nil
}
