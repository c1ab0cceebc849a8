package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"milpjoin/internal/sparse"
)

// btranBothWays solves Bᵀ·y = c against f down the dense and the sparse
// pull, in storage of its own, and returns both y and both pulled vectors.
// f is left as it was.
func btranBothWays(f *basisFactor, c []float64) (yDense, ySparse, vDense, vSparse []float64) {
	vDense, vSparse = slices.Clone(c), slices.Clone(c)
	f.pullDense(vDense)
	pull := make([]pullItem, 0, len(c))
	for i, ci := range c {
		if ci != 0 {
			pull = append(pull, pullItem{int32(i), f.rowHead[i]})
		}
	}
	f.pullSparse(vSparse, pull)
	yDense, ySparse = make([]float64, len(c)), make([]float64, len(c))
	lu := &f.slots[f.cur].lu
	lu.SolveTransposeToPivot(vDense, yDense)
	lu.SolveTransposeToPivot(vSparse, ySparse)
	return yDense, ySparse, vDense, vSparse
}

// differsBeyondZeroSign returns the first position where a and b differ
// other than by the sign of a zero, or -1: the contract of the sparse pull
// (a nonzero keeps its bits, a zero may change sign).
func differsBeyondZeroSign(a, b []float64) int {
	for i := range a {
		if a[i] == 0 && b[i] == 0 {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// randomEtaFactor returns a factor over a random nonsingular m×m basis B₀
// (lower triangular, off-diagonal entries of density 3/m, a diagonal away
// from zero) with k random etas on top. Every other file draws its
// values from a few small integers, so that pulls cancel to exact zeros of
// either sign; the others from a continuous range. An eta's column has from
// no entries to all m.
func randomEtaFactor(t testing.TB, rng *rand.Rand, m, k int) *basisFactor {
	t.Helper()
	small := rng.Intn(2) == 0
	value := func() float64 {
		if small {
			return float64(rng.Intn(5) - 2)
		}
		return rng.NormFloat64()
	}
	tr := sparse.NewTriplet(m, m)
	for j := 0; j < m; j++ {
		d := 1 + rng.Float64()
		if small {
			d = []float64{1, -1, 2, 0.5}[rng.Intn(4)]
		}
		tr.Add(j, j, d)
		for i := j + 1; i < m; i++ {
			if rng.Float64() < 3/float64(m) {
				if v := value(); v != 0 {
					tr.Add(i, j, v)
				}
			}
		}
	}
	head := make([]int, m)
	for j := range head {
		head[j] = j
	}
	f := &basisFactor{}
	f.reset(m)
	if _, err := f.load(tr.Compress(), head); err != nil {
		t.Fatal(err)
	}
	w := make([]float64, m)
	var ind []int
	for e := 0; e < k; e++ {
		r := rng.Intn(m)
		density := []float64{0, 1 / float64(m), 0.05, 0.3, 1}[rng.Intn(5)]
		clear(w)
		ind = ind[:0]
		for i := range w {
			if i != r && rng.Float64() < density {
				w[i] = value()
			}
		}
		w[r] = []float64{1, -1, 2, -0.5, 1.5}[rng.Intn(5)]
		for i, wi := range w {
			if wi != 0 {
				ind = append(ind, i)
			}
		}
		if !f.update(r, w, ind) {
			t.Fatalf("update refused pivot %v at %d", w[r], r)
		}
	}
	return f
}

// randomRHS returns a right-hand side of length m: a unit vector, or
// nonzeros of density from one in m to all, with each zero +0 or −0.
func randomRHS(rng *rand.Rand, m int) []float64 {
	c := make([]float64, m)
	for i := range c {
		if rng.Intn(2) == 0 {
			c[i] = math.Copysign(0, -1)
		}
	}
	if rng.Intn(4) == 0 {
		c[rng.Intn(m)] = 1
		return c
	}
	density := []float64{1 / float64(m), 0.02, 0.2, 0.6, 1}[rng.Intn(5)]
	for i := range c {
		if rng.Float64() < density {
			c[i] = float64(rng.Intn(5) - 2) // may be +0 too
			if rng.Intn(2) == 0 {
				c[i] = rng.NormFloat64()
			}
		}
	}
	return c
}

// checkEtaBtran holds the sparse pull to the dense one on one random eta
// file and a few right-hand sides, both directly and through btran with
// each path forced.
func checkEtaBtran(t *testing.T, rng *rand.Rand, m, k int) {
	t.Helper()
	f := randomEtaFactor(t, rng, m, k)
	for range 4 {
		c := randomRHS(rng, m)
		label := fmt.Sprintf("m=%d k=%d nnz(c)=%d", m, k, m-countZeros(c))
		yDense, ySparse, vDense, vSparse := btranBothWays(f, c)
		if i := differsBeyondZeroSign(vDense, vSparse); i >= 0 {
			t.Fatalf("%s: pulled v[%d] = %v sparse, %v dense", label, i, vSparse[i], vDense[i])
		}
		if i := differsBeyondZeroSign(yDense, ySparse); i >= 0 {
			t.Fatalf("%s: y[%d] = %v sparse, %v dense", label, i, ySparse[i], yDense[i])
		}
		for _, sparse := range []bool{false, true} {
			btranHook = func(*basisFactor, []float64, bool) bool { return sparse }
			y := make([]float64, m)
			f.btran(c, y)
			btranHook = nil
			if i := differsBeyondZeroSign(yDense, y); i >= 0 {
				t.Fatalf("%s: btran forced sparse=%v gives y[%d] = %v, dense loop %v", label, sparse, i, y[i], yDense[i])
			}
		}
	}
}

func countZeros(v []float64) int {
	n := 0
	for _, x := range v {
		if x == 0 {
			n++
		}
	}
	return n
}

// TestSparseEtaBtranMatchesDense holds the sparse pull through the eta file
// to the dense loop on random eta files of 1 to 64 etas: every nonzero of
// the pulled vector and of y has the dense loop's bits, and a zero differs
// at most in sign. The right-hand sides run from a unit vector to fully
// dense with zeros of both signs, and half the files cancel to exact zeros.
func TestSparseEtaBtranMatchesDense(t *testing.T) {
	t.Cleanup(func() { btranHook = nil })
	rng := rand.New(rand.NewSource(35))
	for k := 1; k <= 64; k++ {
		for _, m := range []int{1, 7, 40, 150} {
			checkEtaBtran(t, rng, m, k)
		}
	}
}

// FuzzEtaBtranMatchesDense is TestSparseEtaBtranMatchesDense over fuzzed
// seeds, row counts and eta counts.
func FuzzEtaBtranMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(5))
	f.Add(int64(2), uint8(1), uint8(64))
	f.Add(int64(3), uint8(200), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, m, k uint8) {
		t.Cleanup(func() { btranHook = nil })
		checkEtaBtran(t, rand.New(rand.NewSource(seed)), 1+int(m), 1+int(k)%64)
	})
}

// TestUpdateRefusesNonFinite feeds update a NaN pivot, an infinite pivot and
// a column with a NaN or infinite entry off the pivot. It must refuse each,
// so that the solver refactorizes, and leave the eta file and its row file
// as they were: a term the sparse pull skips is then always a finite entry
// times a zero.
func TestUpdateRefusesNonFinite(t *testing.T) {
	f := randomEtaFactor(t, rand.New(rand.NewSource(1)), 6, 2)
	etas, nnz, rows := f.numEtas(), f.etaNnz, slices.Clone(f.rowHead)
	for _, tc := range []struct {
		name string
		w    []float64
	}{
		{"NaN pivot", []float64{0, 0, math.NaN(), 1, 0, 0}},
		{"+Inf pivot", []float64{0, 0, math.Inf(1), 1, 0, 0}},
		{"-Inf pivot", []float64{0, 1, math.Inf(-1), 0, 0, 0}},
		{"NaN entry", []float64{1, 0, 2, 0, math.NaN(), 0}},
		{"Inf entry", []float64{0, 0, 2, 0, 0, math.Inf(-1)}},
		{"tiny pivot", []float64{1, 0, 1e-12, 0, 0, 0}},
	} {
		var ind []int
		for i, wi := range tc.w {
			if wi != 0 {
				ind = append(ind, i)
			}
		}
		if f.update(2, tc.w, ind) {
			t.Errorf("%s: update accepted it", tc.name)
		}
		if f.numEtas() != etas || f.etaNnz != nnz || !slices.Equal(f.rowHead, rows) {
			t.Fatalf("%s: a refused update changed the eta file", tc.name)
		}
	}
	if !f.update(2, []float64{1, 0, 2, 0, 0, -1}, []int{0, 2, 5}) {
		t.Fatal("update refused a finite column")
	}
}
