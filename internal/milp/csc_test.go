package milp_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/milp"
	"milpjoin/internal/sparse"
	"milpjoin/internal/workload"
)

// sameCSC fails unless got and want agree in shape, column pointers, row
// indices and the bits of every value.
func sameCSC(t *testing.T, name string, got, want *sparse.CSC) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j, p := range want.ColPtr {
		if got.ColPtr[j] != p {
			t.Fatalf("%s: ColPtr[%d] = %d, reference %d", name, j, got.ColPtr[j], p)
		}
	}
	if len(got.ColPtr) != len(want.ColPtr) || got.Nnz() != want.Nnz() || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: %d pointers, %d entries; reference %d, %d", name, len(got.ColPtr), got.Nnz(), len(want.ColPtr), want.Nnz())
	}
	for p, i := range want.RowInd {
		if got.RowInd[p] != i || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("%s: entry %d = (%d, %v), reference (%d, %v)", name, p, got.RowInd[p], got.Val[p], i, want.Val[p])
		}
	}
}

// sameCompiled fails unless Compile's form got and the reference want agree
// bit for bit on A, B, ColScale, L, U and C, and in NumStructural and
// Integral.
func sameCompiled(t *testing.T, name string, got, want *milp.Computational) {
	t.Helper()
	sameCSC(t, name, got.Problem.A, want.Problem.A)
	if got.NumStructural != want.NumStructural || !slices.Equal(got.Integral, want.Integral) {
		t.Fatalf("%s: %d structural columns, integral %v; reference %d, %v",
			name, got.NumStructural, got.Integral, want.NumStructural, want.Integral)
	}
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{
		{"B", got.Problem.B, want.Problem.B},
		{"ColScale", got.ColScale, want.ColScale},
		{"L", got.Problem.L, want.Problem.L},
		{"U", got.Problem.U, want.Problem.U},
		{"C", got.Problem.C, want.Problem.C},
	} {
		if len(arr.got) != len(arr.want) {
			t.Fatalf("%s: %s has %d entries, reference %d", name, arr.name, len(arr.got), len(arr.want))
		}
		for k, w := range arr.want {
			if math.Float64bits(arr.got[k]) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", name, arr.name, k, arr.got[k], w)
			}
		}
	}
}

// TestCompileMatrixMatchesTriplet holds Compile to the dense reference, bit
// for bit on all six arrays, on the join encodings of the chain, cycle and
// star draws the benchmark pools are made of.
func TestCompileMatrixMatchesTriplet(t *testing.T) {
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star} {
		for tables := 5; tables <= 10; tables++ {
			for seed := int64(1); seed <= 2; seed++ {
				q := workload.Generate(shape, tables, seed, workload.Config{})
				for _, opts := range []core.Options{
					{},
					{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin},
				} {
					enc, err := core.Encode(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("shape %d, %d tables, seed %d, %+v", shape, tables, seed, opts)
					sameCompiled(t, name, enc.Model.Compile(), enc.Model.TripletMatrix())
				}
			}
		}
	}
}

// TestCompileMatrixMatchesTripletRandom does the same on random models whose
// rows repeat variables, cancel terms exactly, and mix coefficients so far
// apart that equilibration scales the small ones to exactly zero.
func TestCompileMatrixMatchesTripletRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		m := milp.NewModel("random")
		n := 1 + rng.Intn(8)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				m.AddBinary(rng.NormFloat64(), "")
			} else {
				m.AddContinuous(-10, 10, rng.NormFloat64(), "")
			}
		}
		rows := rng.Intn(8)
		for i := 0; i < rows; i++ {
			var e milp.LinExpr
			for k := rng.Intn(10); k > 0; k-- {
				v := milp.Var(rng.Intn(n))
				c := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				switch rng.Intn(5) {
				case 0: // cancels exactly
					e = e.Add(v, c).Add(v, -c)
				case 1: // repeated
					e = e.Add(v, c).Add(v, c)
				case 2: // scaled to zero beside a huge coefficient
					e = e.Add(v, 1e-300).Add(milp.Var(rng.Intn(n)), 1e300)
				default:
					e = e.Add(v, c)
				}
			}
			m.AddConstr(e, []milp.Sense{milp.LE, milp.GE, milp.EQ}[rng.Intn(3)], rng.NormFloat64(), "")
		}
		sameCompiled(t, fmt.Sprintf("trial %d", trial), m.Compile(), m.TripletMatrix())
	}
}

// largerModel is a model with more variables than any model
// FuzzCompileMatchesReference decodes, and more rows and nonzeros than its
// seeds, every objective coefficient and bound nonzero, so that a Computational compiled from it holds stale
// values wherever CompileInto fails to write a smaller model's element.
func largerModel() *milp.Model {
	rng := rand.New(rand.NewSource(43))
	m := milp.NewModel("larger")
	for j := 0; j < 12; j++ {
		if j%3 == 0 {
			m.AddBinary(1+float64(j), "")
		} else {
			m.AddContinuous(-7-float64(j), 100, 1e3*float64(j+1), "")
		}
	}
	for i := 0; i < 40; i++ {
		var e milp.LinExpr
		for j := 0; j < 12; j++ {
			e = e.Add(milp.Var(j), (1+rng.Float64())*math.Pow(10, float64(rng.Intn(9)-4)))
		}
		m.AddConstr(e, milp.Sense(i%3), 3+rng.Float64(), "")
	}
	return m
}

// FuzzCompileMatchesReference holds Compile to the dense reference on
// models decoded from arbitrary bytes, and CompileInto a Computational last
// compiled from largerModel to Compile, field for field. The first byte sets the number of
// variables (1–8) and the second their types; every further three bytes
// add one term: the variable (a set high bit starts a new row), and a
// coefficient that is 0, −0, or of magnitude 1e-300 to 1e300. Rows repeat
// variables freely, and their coefficients lie so far apart that scaling
// underflows some of them to exactly zero.
func FuzzCompileMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0b010, 0, 150, 9, 1, 200, 17, 2, 40, 1, 0x80, 255, 25, 0x81, 0, 2})
	f.Add([]byte{7, 0b1010101, 0, 0, 8, 1, 100, 16, 0, 250, 24, 0x82, 150, 3, 2, 150, 11, 2, 160, 19, 0x83, 0, 1})
	f.Add([]byte{1, 0, 0, 60, 8, 0, 60, 12, 0x80, 230, 9, 0, 50, 8})
	larger := largerModel()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := milp.NewModel("fuzz")
		n := 1 + int(data[0]%8)
		for j := 0; j < n; j++ {
			if data[1]>>j&1 == 1 {
				m.AddBinary(float64(j)-2, "")
			} else {
				m.AddContinuous(-10, float64(j+1), 1-float64(j)/4, "")
			}
		}
		var e milp.LinExpr
		addRow := func() {
			i := m.NumConstrs()
			m.AddConstr(e, []milp.Sense{milp.LE, milp.GE, milp.EQ}[i%3], float64(i)-1.5, "")
			e = milp.LinExpr{}
		}
		for k := 2; k+2 < len(data); k += 3 {
			if data[k]&0x80 != 0 && e.NumTerms() > 0 {
				addRow()
			}
			var c float64
			switch kind := data[k+2]; kind % 8 {
			case 0:
			case 1:
				c = math.Copysign(0, -1)
			default:
				c = (1 + float64(kind>>3)/32) * math.Pow(10, float64(int(data[k+1])*600/255-300))
				if kind%2 == 1 {
					c = -c
				}
			}
			e = e.Add(milp.Var(int(data[k]&0x7f)%n), c)
		}
		addRow()
		sameCompiled(t, "fuzz", m.Compile(), m.TripletMatrix())
		sameCompiled(t, "fuzz, compiled into reused storage", m.CompileInto(larger.Compile()), m.Compile())
	})
}
