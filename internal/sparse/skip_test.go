package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The four triangular solves as they were before they walked lCols/uCols:
// every pivot position is visited. They are the reference the list-driven
// kernels must match bit for bit.

func refLowerSolve(lu *LU, y []float64) {
	for k := 0; k < lu.N; k++ {
		yk := y[k]
		if yk == 0 {
			continue
		}
		for p := lu.Lp[k]; p < lu.Lp[k+1]; p++ {
			y[lu.Li[p]] -= lu.Lx[p] * yk
		}
	}
}

func refUpperSolve(lu *LU, z []float64) {
	for k := lu.N - 1; k >= 0; k-- {
		zk := z[k] / lu.Udiag[k]
		z[k] = zk
		if zk == 0 {
			continue
		}
		for p := lu.Up[k]; p < lu.Up[k+1]; p++ {
			z[lu.Ui[p]] -= lu.Ux[p] * zk
		}
	}
}

func refUpperTransposeSolve(lu *LU, w []float64) {
	for k := 0; k < lu.N; k++ {
		s := w[k]
		for p := lu.Up[k]; p < lu.Up[k+1]; p++ {
			s -= lu.Ux[p] * w[lu.Ui[p]]
		}
		w[k] = s / lu.Udiag[k]
	}
}

func refLowerTransposeSolve(lu *LU, v []float64) {
	for k := lu.N - 1; k >= 0; k-- {
		s := v[k]
		for p := lu.Lp[k]; p < lu.Lp[k+1]; p++ {
			s -= lu.Lx[p] * v[lu.Li[p]]
		}
		v[k] = s
	}
}

var solveKernels = []struct {
	name string
	got  func(*LU, []float64)
	ref  func(*LU, []float64)
}{
	{"lowerSolve", (*LU).lowerSolve, refLowerSolve},
	{"upperSolve", (*LU).upperSolve, refUpperSolve},
	{"upperTransposeSolve", (*LU).upperTransposeSolve, refUpperTransposeSolve},
	{"lowerTransposeSolve", (*LU).lowerTransposeSolve, refLowerTransposeSolve},
}

// wantLists recomputes lCols and uCols from the factors themselves.
func wantLists(lu *LU) (lCols, uCols []int) {
	for k := 0; k < lu.N; k++ {
		if lu.Lp[k+1] > lu.Lp[k] {
			lCols = append(lCols, k)
		}
		if lu.Up[k+1] > lu.Up[k] || lu.Udiag[k] != 1 {
			uCols = append(uCols, k)
		}
	}
	return lCols, uCols
}

// basisCase is a square matrix given by columns; a nil column j is the
// unit slack e_j.
type basisCase struct {
	name string
	cols []map[int]float64
}

func (bc basisCase) csc() *CSC {
	n := len(bc.cols)
	tr := NewTriplet(n, n)
	for j, col := range bc.cols {
		if col == nil {
			tr.Add(j, j, 1)
			continue
		}
		for i, v := range col {
			tr.Add(i, j, v)
		}
	}
	return tr.Compress()
}

func identityCase(name string, n int) basisCase {
	return basisCase{name: name, cols: make([]map[int]float64, n)}
}

// randomMix draws a basis in which about share of the columns are unit
// slacks, a few are slacks scaled to 0.5 or −1, and the rest are structural:
// a strong entry on the diagonal plus a handful of others.
func randomMix(rng *rand.Rand, n int, share float64) basisCase {
	bc := identityCase(fmt.Sprintf("mix n=%d identity=%.2f", n, share), n)
	for j := range bc.cols {
		switch r := rng.Float64(); {
		case r < share:
			// unit slack
		case r < share+0.05:
			bc.cols[j] = map[int]float64{j: 0.5}
		case r < share+0.1:
			bc.cols[j] = map[int]float64{j: -1}
		default:
			col := map[int]float64{j: 2 + 4*rng.Float64()}
			for e := rng.Intn(5); e > 0; e-- {
				col[rng.Intn(n)] += rng.NormFloat64()
			}
			bc.cols[j] = col
		}
	}
	return bc
}

// namedBasisCases are the hand-built bases the solve kernels are held to the
// reference on: identity, 1×1, a unit diagonal with off-diagonals, slacks
// scaled to −1 and 0.5, and a fully dense block drawn from rng.
func namedBasisCases(rng *rand.Rand) []basisCase {
	oneStructural := identityCase("one structural column", 6)
	oneStructural.cols[2] = map[int]float64{0: 3, 2: 4, 5: -2}

	// Columns 1..4 reach above the diagonal with small entries, so the
	// pivot stays the 1 on the diagonal and U gets off-diagonals beside it.
	unitUpper := identityCase("unit diagonal with off-diagonals", 5)
	for j := 1; j < 5; j++ {
		unitUpper.cols[j] = map[int]float64{j: 1, j - 1: 0.03125, 0: 0.0625}
	}

	minusOne := identityCase("diagonal -1", 5)
	minusOne.cols[3] = map[int]float64{3: -1}

	scaledSlack := identityCase("slack scaled to 0.5", 5)
	scaledSlack.cols[1] = map[int]float64{1: 0.5}

	dense := identityCase("fully dense block", 7)
	for j := range dense.cols {
		dense.cols[j] = map[int]float64{}
		for i := range dense.cols {
			dense.cols[j][i] = rng.NormFloat64()
		}
		dense.cols[j][j] += 8
	}

	return []basisCase{
		identityCase("pure identity", 6),
		oneStructural, unitUpper, minusOne, scaledSlack, dense,
		identityCase("1x1 identity", 1),
		{name: "1x1 scaled", cols: []map[int]float64{{0: -4}}},
	}
}

// TestSolvesSkipTrivialColumnsBitIdentical pins that walking only the pivot
// positions with work — a non-empty L column, a U column with off-diagonals
// or a diagonal other than 1 — gives the same bits as walking all of them,
// on bases mixed from identity and structural columns the way a simplex basis
// is, and that entries at skipped positions pass through untouched whatever
// they hold.
func TestSolvesSkipTrivialColumnsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := namedBasisCases(rng)
	for i := 0; i < 200; i++ {
		cases = append(cases, randomMix(rng, 5+rng.Intn(56), 0.05+0.9*float64(i)/199))
	}

	var sawUnitDiagWithOffDiag, sawSkipped bool
	var lu LU
	var ws FactorScratch
	for _, bc := range cases {
		a := bc.csc()
		n := a.Rows
		if err := FactorizeInto(&lu, a, FactorOptions{}, &ws); err != nil {
			t.Fatalf("%s: %v", bc.name, err)
		}
		wantL, wantU := wantLists(&lu)
		if !slices.Equal(lu.lCols, wantL) || !slices.Equal(lu.uCols, wantU) {
			t.Fatalf("%s: lists L %v U %v, want L %v U %v", bc.name, lu.lCols, lu.uCols, wantL, wantU)
		}
		for _, k := range lu.uCols {
			if lu.Udiag[k] == 1 {
				sawUnitDiagWithOffDiag = true
			}
		}
		// Positions no kernel has work at.
		var idle []int
		for k := 0; k < n; k++ {
			if !slices.Contains(lu.lCols, k) && !slices.Contains(lu.uCols, k) {
				idle = append(idle, k)
			}
		}
		sawSkipped = sawSkipped || len(idle) > 0

		// Right-hand sides: dense, sparse, all zero, and one with −0, +Inf
		// and a NaN parked at idle positions.
		rhss := [][]float64{randomDense(rng, n), make([]float64, n), make([]float64, n)}
		for e := 1 + n/8; e > 0; e-- {
			rhss[1][rng.Intn(n)] = rng.NormFloat64()
		}
		if len(idle) > 0 {
			special := randomDense(rng, n)
			for i, v := range []float64{math.Copysign(0, -1), math.Inf(1), math.NaN()} {
				special[idle[(i*7)%len(idle)]] = v
			}
			rhss = append(rhss, special)
		}

		for r, rhs := range rhss {
			for _, kern := range solveKernels {
				got := slices.Clone(rhs)
				want := slices.Clone(rhs)
				kern.got(&lu, got)
				kern.ref(&lu, want)
				for i := range want {
					// Float64bits is stricter than ==: it tells −0 from
					// +0 and compares a NaN with itself.
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, rhs %d, %s: entry %d = %v, all-positions loop gives %v", bc.name, r, kern.name, i, got[i], want[i])
					}
				}
			}
		}

		dlu, err := FactorizeDense(a.Dense())
		if err != nil {
			t.Fatalf("%s: dense oracle: %v", bc.name, err)
		}
		scale := 1 + a.MaxAbs()
		for _, rhs := range rhss[:2] {
			x := slices.Clone(rhs)
			lu.SolveInPlace(x, make([]float64, n))
			if d := maxAbsDiff(x, dlu.Solve(rhs)); d > 1e-8*scale {
				t.Fatalf("%s: SolveInPlace differs from the dense oracle by %g", bc.name, d)
			}
			y := slices.Clone(rhs)
			lu.SolveTransposeInPlace(y, make([]float64, n))
			if d := maxAbsDiff(y, dlu.SolveTranspose(rhs)); d > 1e-8*scale {
				t.Fatalf("%s: SolveTransposeInPlace differs from the dense oracle by %g", bc.name, d)
			}
		}
	}
	if !sawUnitDiagWithOffDiag {
		t.Error("no case put a unit diagonal with off-diagonals on the U list")
	}
	if !sawSkipped {
		t.Error("no case had a position off both lists")
	}
}

// TestFactorizeIntoFailureDropsLists pins that a factorization failing midway
// leaves nothing of the previous factorization's lists behind, and that the
// next success rebuilds them for the new matrix.
func TestFactorizeIntoFailureDropsLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var lu LU
	var ws FactorScratch
	big := randomNonsingularCSC(rng, 30, 0.3)
	if err := FactorizeInto(&lu, big, FactorOptions{}, &ws); err != nil {
		t.Fatal(err)
	}
	if len(lu.lCols) == 0 || len(lu.uCols) != 30 {
		t.Fatalf("dense 30x30: %d L columns, %d U columns on the lists", len(lu.lCols), len(lu.uCols))
	}

	// Singular in its last columns, so the failure comes after the lists
	// have been started.
	sing := identityCase("", 8)
	sing.cols[6] = map[int]float64{6: 1, 7: 1}
	sing.cols[7] = map[int]float64{6: 1, 7: 1}
	if err := FactorizeInto(&lu, sing.csc(), FactorOptions{}, &ws); err == nil {
		t.Fatal("singular matrix factorized")
	}
	if len(lu.lCols) > 8 || len(lu.uCols) > 8 {
		t.Fatalf("after a failed 8x8 factorization the lists still hold %d and %d positions of the 30x30 one", len(lu.lCols), len(lu.uCols))
	}

	small := identityCase("", 4)
	small.cols[1] = map[int]float64{1: 2, 3: 1}
	if err := FactorizeInto(&lu, small.csc(), FactorOptions{}, &ws); err != nil {
		t.Fatal(err)
	}
	wantL, wantU := wantLists(&lu)
	if !slices.Equal(lu.lCols, wantL) || !slices.Equal(lu.uCols, wantU) {
		t.Fatalf("lists L %v U %v after recovery, want L %v U %v", lu.lCols, lu.uCols, wantL, wantU)
	}
	x := []float64{1, 2, 3, 4}
	lu.SolveInPlace(x, make([]float64, 4))
	if want := []float64{1, 1, 3, 3}; !slices.Equal(x, want) {
		t.Fatalf("solve after recovery = %v, want %v", x, want)
	}
}
