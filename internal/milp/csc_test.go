package milp_test

import (
	"fmt"
	"math"
	"math/rand"
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

// TestCompileMatrixMatchesTriplet holds the compressed columns Compile writes
// to the Triplet reference, entry for entry, on the join encodings of the
// chain, cycle and star draws the benchmark pools are made of.
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
					sameCSC(t, name, enc.Model.Compile().Problem.A, enc.Model.TripletMatrix())
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
		sameCSC(t, fmt.Sprintf("trial %d", trial), m.Compile().Problem.A, m.TripletMatrix())
	}
}
