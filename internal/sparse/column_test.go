package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSolveColumnMatchesDense holds the sparse entry points to the dense
// solves they stand in for. On the bases of namedBasisCases and random
// identity/structural mixes, with sparse right-hand sides that carry −0
// entries:
//   - every nonzero SolveColumnInto writes has the bits SolveInPlace gives
//     that position, and it writes nothing where SolveInPlace gives zero;
//   - its marks are exactly the positions it wrote;
//   - its scratch comes back all-zero and all-clear, so a second solve
//     through the same scratch starts clean;
//   - SolveTransposeToPivot scattered through P has the bits of
//     SolveTransposeInPlace everywhere.
func FuzzSolveColumnMatchesDense(f *testing.F) {
	named := len(namedBasisCases(rand.New(rand.NewSource(0))))
	for kind := 0; kind <= named; kind++ {
		f.Add(uint8(kind), int64(kind), uint8(1+kind*7), uint8(51), uint8(2), uint8(1))
	}
	f.Add(uint8(named), int64(99), uint8(60), uint8(242), uint8(9), uint8(3))
	f.Add(uint8(named), int64(7), uint8(200), uint8(153), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, size, share, nnz, negZeros uint8) {
		rng := rand.New(rand.NewSource(seed))
		cases := namedBasisCases(rng)
		var bc basisCase
		if int(kind) < len(cases) {
			bc = cases[kind]
		} else {
			bc = randomMix(rng, 1+int(size), float64(share)/255)
		}
		a := bc.csc()
		var lu LU
		if err := FactorizeInto(&lu, a, FactorOptions{}, &FactorScratch{}); err != nil {
			return // a random mix can be singular; the kernels only see factors
		}
		n := lu.N
		var ws SolveScratch
		for round := 0; round < 2; round++ {
			rows, vals := sparseRHS(rng, n, 1+int(nnz)%n, int(negZeros))
			want := make([]float64, n)
			for p, i := range rows {
				want[i] = vals[p]
			}
			lu.SolveInPlace(want, make([]float64, n))

			x := make([]float64, n)
			marks := GrowBitset(nil, n)
			lu.SolveColumnInto(rows, vals, x, marks, &ws)
			for i := range want {
				marked := marks[i>>6]>>(i&63)&1 == 1
				switch {
				case want[i] != 0 && math.Float64bits(x[i]) != math.Float64bits(want[i]):
					t.Fatalf("%s, round %d: x[%d] = %v, SolveInPlace gives %v", bc.name, round, i, x[i], want[i])
				case want[i] == 0 && x[i] != 0:
					t.Fatalf("%s, round %d: x[%d] = %v where SolveInPlace gives zero", bc.name, round, i, x[i])
				case marked != (want[i] != 0):
					t.Fatalf("%s, round %d: position %d marked %v, value %v", bc.name, round, i, marked, want[i])
				}
			}
			if i := slices.IndexFunc(ws.z, func(v float64) bool { return v != 0 }); i >= 0 {
				t.Fatalf("%s, round %d: scratch left %v at %d", bc.name, round, ws.z[i], i)
			}
			if i := slices.IndexFunc(ws.mark, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("%s, round %d: scratch marks left set in word %d", bc.name, round, i)
			}
		}

		c := randomDense(rng, n)
		if n > 1 {
			c[rng.Intn(n)] = math.Copysign(0, -1)
		}
		want := slices.Clone(c)
		lu.SolveTransposeInPlace(want, make([]float64, n))
		v := make([]float64, n)
		lu.SolveTransposeToPivot(c, v)
		for k, i := range lu.P {
			if math.Float64bits(v[k]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: pivot row %d (row %d) = %v, SolveTransposeInPlace gives %v", bc.name, k, i, v[k], want[i])
			}
		}
	})
}

// sparseRHS draws a right-hand side with nnz entries at distinct ascending
// rows, as a CSC column holds them, negZeros of them −0.
func sparseRHS(rng *rand.Rand, n, nnz, negZeros int) (rows []int, vals []float64) {
	rows = rng.Perm(n)[:nnz]
	slices.Sort(rows)
	vals = make([]float64, nnz)
	for p := range vals {
		vals[p] = rng.NormFloat64()
	}
	for ; negZeros > 0; negZeros-- {
		vals[rng.Intn(nnz)] = math.Copysign(0, -1)
	}
	return rows, vals
}
