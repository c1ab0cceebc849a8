package milp

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestAddVarAndAccessors(t *testing.T) {
	m := NewModel("test")
	x := m.AddContinuous(-1, 5, 2, "x")
	y := m.AddBinary(-3, "y")
	z := m.AddVar(0, 10, 0, Integer, "z")

	if m.NumVars() != 3 {
		t.Fatalf("NumVars = %d", m.NumVars())
	}
	if m.NumIntVars() != 2 {
		t.Fatalf("NumIntVars = %d", m.NumIntVars())
	}
	if l, u := m.Bounds(x); l != -1 || u != 5 {
		t.Errorf("Bounds(x) = %g, %g", l, u)
	}
	if l, u := m.Bounds(y); l != 0 || u != 1 {
		t.Errorf("binary bounds = %g, %g", l, u)
	}
	if m.VarType(z) != Integer || m.VarType(x) != Continuous {
		t.Error("VarType wrong")
	}
	if !m.IsIntegral(y) || m.IsIntegral(x) {
		t.Error("IsIntegral wrong")
	}
	if m.VarName(x) != "x" {
		t.Errorf("VarName = %q", m.VarName(x))
	}
	if m.ObjCoeff(y) != -3 {
		t.Errorf("ObjCoeff(y) = %g", m.ObjCoeff(y))
	}
}

func TestBinaryBoundsClipped(t *testing.T) {
	m := NewModel("clip")
	b := m.AddVar(-5, 9, 0, Binary, "b")
	if l, u := m.Bounds(b); l != 0 || u != 1 {
		t.Errorf("clipped bounds = %g, %g, want 0, 1", l, u)
	}
}

func TestUnnamedVarGetsSyntheticName(t *testing.T) {
	m := NewModel("")
	v := m.AddBinary(0, "")
	if m.VarName(v) != "x0" {
		t.Errorf("VarName = %q, want x0", m.VarName(v))
	}
}

func TestExprCompaction(t *testing.T) {
	m := NewModel("compact")
	x := m.AddBinary(0, "x")
	y := m.AddBinary(0, "y")
	// x + x - 2x + 3y → 3y only.
	e := Expr(x, 1.0, x, 1.0, x, -2.0, y, 3.0)
	m.AddConstr(e, LE, 1, "c")
	got, _, _, _ := m.Constr(0)
	if got.NumTerms() != 1 {
		t.Fatalf("terms = %d, want 1", got.NumTerms())
	}
	got.Terms(func(v Var, c float64) {
		if v != y || c != 3 {
			t.Errorf("term = (%d, %g), want (y, 3)", v, c)
		}
	})
}

// TestConstrStoreNeverAliases holds the row store apart from every
// expression outside it, whether AddConstr keeps the terms as they are or
// sorts, merges or drops them: after AddConstr, writing to and appending to
// the caller's expression, and appending to the expression Constr returns,
// leave row i and row i+1 as they were stored.
func TestConstrStoreNeverAliases(t *testing.T) {
	next := Expr(Var(4), 7.0, Var(5), -1.0)
	for _, tc := range []struct {
		name string
		e    LinExpr
		want LinExpr
	}{
		{"compact", Expr(Var(0), 1.0, Var(2), -2.0, Var(5), 0.5), Expr(Var(0), 1.0, Var(2), -2.0, Var(5), 0.5)},
		{"one term", Expr(Var(3), 4.0), Expr(Var(3), 4.0)},
		{"unsorted", Expr(Var(2), 1.0, Var(0), 2.0), Expr(Var(0), 2.0, Var(2), 1.0)},
		{"duplicate", Expr(Var(1), 1.0, Var(1), 2.0, Var(4), 1.0), Expr(Var(1), 3.0, Var(4), 1.0)},
		{"zero", Expr(Var(0), 1.0, Var(1), 0.0, Var(2), 1.0), Expr(Var(0), 1.0, Var(2), 1.0)},
		{"negative zero", Expr(Var(0), math.Copysign(0, -1), Var(1), 1.0), Expr(Var(1), 1.0)},
	} {
		m := NewModel("alias")
		for j := 0; j < 6; j++ {
			m.AddBinary(0, "")
		}
		m.AddConstr(Expr(Var(3), 1.0), LE, 1, "before")
		// Spare capacity, so that an aliasing row would see appends.
		e := LinExpr{terms: append(make([]term, 0, 16), tc.e.terms...)}
		i := m.AddConstr(e, LE, 1, "row")
		m.AddConstr(next, GE, 0, "next")

		for k := range e.terms {
			e.terms[k] = term{99, 99}
		}
		_ = e.Add(98, 98)
		got, _, _, _ := m.Constr(i)
		_ = got.Add(97, 97)

		for _, row := range []struct {
			i    int
			want LinExpr
		}{{i, tc.want}, {i + 1, next}} {
			if got, _, _, _ := m.Constr(row.i); !slices.Equal(got.terms, row.want.terms) {
				t.Errorf("%s: row %d = %v, want %v", tc.name, row.i, got.terms, row.want.terms)
			}
		}
	}
}

// TestCheckFeasibleRejectsNaN holds every test CheckFeasible makes to
// failing on NaN: in a value, in the integrality of an infinite value, in
// a row activity of each sense (1e300·x − 1e300·y at x = y = 1e300 is
// +Inf − Inf) and in the objective.
func TestCheckFeasibleRejectsNaN(t *testing.T) {
	free := func(m *Model, obj float64) Var { return m.AddContinuous(math.Inf(-1), math.Inf(1), obj, "") }
	for _, tc := range []struct {
		name   string
		build  func(m *Model)
		values []float64
	}{
		{"value", func(m *Model) { m.AddContinuous(0, 4, 1, "") }, []float64{math.NaN()}},
		{"integrality", func(m *Model) { m.AddVar(0, math.Inf(1), 0, Integer, "") }, []float64{math.Inf(1)}},
		{"activity LE", func(m *Model) { m.AddConstr(Expr(free(m, 0), 1e300, free(m, 0), -1e300), LE, 0, "") }, []float64{1e300, 1e300}},
		{"activity GE", func(m *Model) { m.AddConstr(Expr(free(m, 0), 1e300, free(m, 0), -1e300), GE, 0, "") }, []float64{1e300, 1e300}},
		{"activity EQ", func(m *Model) { m.AddConstr(Expr(free(m, 0), 1e300, free(m, 0), -1e300), EQ, 0, "") }, []float64{1e300, 1e300}},
		{"objective", func(m *Model) { free(m, 1e300); free(m, -1e300) }, []float64{1e300, 1e300}},
	} {
		m := NewModel("nan")
		tc.build(m)
		if err := m.CheckFeasible(tc.values, 1e-6); err == nil {
			t.Errorf("%s: %v accepted as feasible", tc.name, tc.values)
		}
	}
}

func TestExprPanicsOnBadInput(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("odd pairs", func() { Expr(Var(0)) })
	assertPanics("non-var", func() { Expr(1.0, 2.0) })
	assertPanics("non-numeric", func() { Expr(Var(0), "x") })
	assertPanics("unknown var in constraint", func() {
		m := NewModel("")
		m.AddConstr(Expr(Var(7), 1.0), LE, 0, "bad")
	})
}

func TestSum(t *testing.T) {
	e := Sum(Var(0), Var(1), Var(2))
	if e.NumTerms() != 3 {
		t.Fatalf("Sum terms = %d", e.NumTerms())
	}
	var total float64
	e.Terms(func(v Var, c float64) { total += c })
	if total != 3 {
		t.Errorf("coefficient total = %g, want 3", total)
	}
}

func TestCompileShapes(t *testing.T) {
	m := NewModel("compile")
	x := m.AddContinuous(0, 4, 1, "x")
	y := m.AddBinary(2, "y")
	m.AddConstr(Expr(x, 1.0, y, 1.0), LE, 3, "le")
	m.AddConstr(Expr(x, 1.0), GE, 1, "ge")
	m.AddConstr(Expr(y, 1.0), EQ, 1, "eq")

	comp := m.Compile()
	p := comp.Problem
	if p.NumRows() != 3 || p.NumCols() != 5 {
		t.Fatalf("compiled shape %dx%d, want 3x5", p.NumRows(), p.NumCols())
	}
	if comp.NumStructural != 2 {
		t.Fatalf("NumStructural = %d", comp.NumStructural)
	}
	if comp.Integral[0] || !comp.Integral[1] {
		t.Error("Integral flags wrong")
	}
	// Logical bounds: LE → [0, inf), GE → (-inf, 0], EQ → [0, 0].
	if p.L[2] != 0 || !math.IsInf(p.U[2], 1) {
		t.Error("LE slack bounds wrong")
	}
	if !math.IsInf(p.L[3], -1) || p.U[3] != 0 {
		t.Error("GE slack bounds wrong")
	}
	if p.L[4] != 0 || p.U[4] != 0 {
		t.Error("EQ slack bounds wrong")
	}
	// Identity block.
	for i := 0; i < 3; i++ {
		if p.A.At(i, 2+i) != 1 {
			t.Errorf("logical column %d missing identity entry", i)
		}
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel("feas")
	x := m.AddContinuous(0, 4, 1, "x")
	y := m.AddBinary(0, "y")
	m.AddConstr(Expr(x, 1.0, y, 2.0), LE, 3, "c")

	if err := m.CheckFeasible([]float64{1, 1}, 1e-9); err != nil {
		t.Errorf("feasible point rejected: %v", err)
	}
	if err := m.CheckFeasible([]float64{5, 0}, 1e-9); err == nil {
		t.Error("bound violation accepted")
	}
	if err := m.CheckFeasible([]float64{0, 0.5}, 1e-9); err == nil {
		t.Error("fractional binary accepted")
	}
	if err := m.CheckFeasible([]float64{3, 1}, 1e-9); err == nil {
		t.Error("constraint violation accepted")
	}
	if err := m.CheckFeasible([]float64{1}, 1e-9); err == nil {
		t.Error("wrong-length assignment accepted")
	}
	_ = x
	_ = y
}

func TestEvalObjectiveWithConstant(t *testing.T) {
	m := NewModel("obj")
	x := m.AddContinuous(0, 10, 3, "x")
	m.AddObjConstant(7)
	if got := m.EvalObjective([]float64{2}); got != 13 {
		t.Errorf("EvalObjective = %g, want 13", got)
	}
	if m.ObjConstant() != 7 {
		t.Errorf("ObjConstant = %g", m.ObjConstant())
	}
	m.SetObjCoeff(x, -1)
	if got := m.EvalObjective([]float64{2}); got != 5 {
		t.Errorf("after SetObjCoeff = %g, want 5", got)
	}
}

func TestStats(t *testing.T) {
	m := NewModel("stats")
	x := m.AddBinary(1, "x")
	y := m.AddContinuous(0, 1, 0, "y")
	m.AddConstr(Expr(x, 1.0, y, 1.0), LE, 1, "")
	m.AddConstr(Expr(x, 1.0), GE, 0, "")
	s := m.Stats()
	if s.Vars != 2 || s.IntVars != 1 || s.Constrs != 2 || s.Nonzeros != 3 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestWriteLP(t *testing.T) {
	m := NewModel("lpfile")
	x := m.AddContinuous(0, 4, 1.5, "x")
	y := m.AddBinary(-1, "y")
	z := m.AddVar(math.Inf(-1), math.Inf(1), 0, Integer, "z")
	m.AddConstr(Expr(x, 1.0, y, -2.0), LE, 3, "cap")
	m.AddConstr(Expr(z, 1.0), EQ, 0, "")

	var sb strings.Builder
	if err := m.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Minimize", "Subject To", "Bounds", "End",
		"1.5 x", "- y", "cap:", "- 2 y", "<= 3",
		"z free", "Binaries", "Generals",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("LP output missing %q:\n%s", want, out)
		}
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Sense strings wrong")
	}
	if !strings.Contains(Sense(9).String(), "9") {
		t.Error("unknown sense should include value")
	}
}

func TestSetBounds(t *testing.T) {
	m := NewModel("")
	v := m.AddContinuous(0, 1, 0, "v")
	m.SetBounds(v, -2, 3)
	if l, u := m.Bounds(v); l != -2 || u != 3 {
		t.Errorf("SetBounds → %g, %g", l, u)
	}
}
