package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomNonsingularCSC builds a random sparse matrix that is almost surely
// nonsingular: random off-diagonal entries plus a strong diagonal.
func randomNonsingularCSC(rng *rand.Rand, n int, density float64) *CSC {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 2+rng.Float64()*4)
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				tr.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return tr.Compress()
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestLUSolveIdentity(t *testing.T) {
	tr := NewTriplet(4, 4)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 1)
	}
	lu, err := Factorize(tr.Compress(), FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4}
	x := append([]float64(nil), b...)
	lu.SolveInPlace(x, make([]float64, 4))
	if d := maxAbsDiff(x, b); d > 1e-14 {
		t.Errorf("identity solve error %g", d)
	}
}

func TestLUSolvePermutation(t *testing.T) {
	// A is a permutation matrix: A[i][p(i)] = 1 with p = (1 2 0 3).
	perm := []int{1, 2, 0, 3}
	tr := NewTriplet(4, 4)
	for i, j := range perm {
		tr.Add(i, j, 1)
	}
	a := tr.Compress()
	lu, err := Factorize(a, FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{10, 20, 30, 40}
	x := append([]float64(nil), b...)
	lu.SolveInPlace(x, make([]float64, 4))
	got := a.MulVec(x)
	if d := maxAbsDiff(got, b); d > 1e-12 {
		t.Errorf("permutation solve residual %g", d)
	}
}

func TestLUSolveAgainstDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(25)
		a := randomNonsingularCSC(rng, n, 0.3)
		lu, err := Factorize(a, FactorOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dlu, err := FactorizeDense(a.Dense())
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		b := randomDense(rng, n)

		x := append([]float64(nil), b...)
		lu.SolveInPlace(x, make([]float64, n))
		want := dlu.Solve(b)
		if d := maxAbsDiff(x, want); d > 1e-8 {
			t.Fatalf("trial %d (n=%d): solve mismatch %g", trial, n, d)
		}
		// Residual check: A x = b.
		if d := maxAbsDiff(a.MulVec(x), b); d > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, d)
		}
	}
}

func TestLUTransposeSolveAgainstDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(25)
		a := randomNonsingularCSC(rng, n, 0.3)
		lu, err := Factorize(a, FactorOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dlu, err := FactorizeDense(a.Dense())
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		c := randomDense(rng, n)

		y := append([]float64(nil), c...)
		lu.SolveTransposeInPlace(y, make([]float64, n))
		want := dlu.SolveTranspose(c)
		if d := maxAbsDiff(y, want); d > 1e-8 {
			t.Fatalf("trial %d (n=%d): transpose solve mismatch %g", trial, n, d)
		}
		// Residual check: Aᵀ y = c.
		got := a.MulVecT(y)
		if d := maxAbsDiff(got, c); d > 1e-8 {
			t.Fatalf("trial %d: transpose residual %g", trial, d)
		}
	}
}

func TestLUSingularDetected(t *testing.T) {
	// Column 2 is identically zero.
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	_, err := Factorize(tr.Compress(), FactorOptions{})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUDuplicateRowSingular(t *testing.T) {
	// Two identical rows make the matrix numerically singular.
	tr := NewTriplet(3, 3)
	vals := [][]float64{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}}
	for i, row := range vals {
		for j, v := range row {
			tr.Add(i, j, v)
		}
	}
	_, err := Factorize(tr.Compress(), FactorOptions{})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquareRejected(t *testing.T) {
	tr := NewTriplet(2, 3)
	tr.Add(0, 0, 1)
	if _, err := Factorize(tr.Compress(), FactorOptions{}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestLUUpperTriangularNoFill(t *testing.T) {
	// For an upper triangular matrix with units on the diagonal, the
	// nnz-ordering heuristic should factorize with zero fill: L empty.
	n := 20
	tr := NewTriplet(n, n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				tr.Add(i, j, rng.NormFloat64())
			}
		}
	}
	a := tr.Compress()
	lu, err := Factorize(a, FactorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lu.Nnz(); got > a.Nnz()+n {
		t.Errorf("fill-in on triangular matrix: LU nnz %d vs A nnz %d", got, a.Nnz())
	}
}

func TestLUExplicitColumnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 10
	a := randomNonsingularCSC(rng, n, 0.4)
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i // reverse order
	}
	lu, err := Factorize(a, FactorOptions{ColOrder: order})
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, n)
	x := append([]float64(nil), b...)
	lu.SolveInPlace(x, make([]float64, n))
	if d := maxAbsDiff(a.MulVec(x), b); d > 1e-8 {
		t.Errorf("residual with explicit order: %g", d)
	}
}

func TestLUBadColumnOrderLength(t *testing.T) {
	a := randomNonsingularCSC(rand.New(rand.NewSource(1)), 4, 0.5)
	if _, err := Factorize(a, FactorOptions{ColOrder: []int{0, 1}}); err == nil {
		t.Fatal("expected error for wrong-length column order")
	}
}

// Property: for random nonsingular matrices, solve then multiply recovers
// the right-hand side (round trip).
func TestLUSolveRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}
	prop := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(sz)%30
		a := randomNonsingularCSC(rng, n, 0.25)
		lu, err := Factorize(a, FactorOptions{})
		if err != nil {
			return false
		}
		b := randomDense(rng, n)
		x := append([]float64(nil), b...)
		lu.SolveInPlace(x, make([]float64, n))
		return maxAbsDiff(a.MulVec(x), b) < 1e-7
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: transpose solve agrees with solving on the explicit transpose.
func TestLUTransposeConsistencyProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(100))}
	prop := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(sz)%20
		a := randomNonsingularCSC(rng, n, 0.3)
		lu, err := Factorize(a, FactorOptions{})
		if err != nil {
			return false
		}
		at := a.Transpose()
		luT, err := Factorize(at, FactorOptions{})
		if err != nil {
			return false
		}
		c := randomDense(rng, n)
		y1 := append([]float64(nil), c...)
		lu.SolveTransposeInPlace(y1, make([]float64, n))
		y2 := append([]float64(nil), c...)
		luT.SolveInPlace(y2, make([]float64, n))
		return maxAbsDiff(y1, y2) < 1e-7
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDenseLUKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	}
	lu, err := FactorizeDense(a)
	if err != nil {
		t.Fatal(err)
	}
	// x = (1, 2, 3): b = A x = (4, 10, 8).
	x := lu.Solve([]float64{4, 10, 8})
	want := []float64{1, 2, 3}
	if d := maxAbsDiff(x, want); d > 1e-12 {
		t.Errorf("Solve = %v, want %v", x, want)
	}
}

func TestDenseLUSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := FactorizeDense(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestDenseLUNonSquare(t *testing.T) {
	a := [][]float64{{1, 2, 3}, {4, 5, 6}}
	if _, err := FactorizeDense(a); err == nil {
		t.Fatal("expected error for ragged/non-square input")
	}
}

func BenchmarkLUFactorize(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		a := randomNonsingularCSC(rng, 500, 0.01)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, FactorOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The matrix a branch-and-bound node refactorizes, the way it does: about
	// half the 450 columns singletons, a third triangular as they stand, into
	// factors and a scratch that have seen it before (0 allocs/op).
	b.Run("basis", func(b *testing.B) {
		a := basisShaped(rand.New(rand.NewSource(3)), 450).csc()
		var lu LU
		var ws FactorScratch
		if err := FactorizeInto(&lu, a, FactorOptions{}, &ws); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := FactorizeInto(&lu, a, FactorOptions{}, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLUSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomNonsingularCSC(rng, 500, 0.01)
	lu, err := Factorize(a, FactorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rhs := randomDense(rng, 500)
	x := make([]float64, 500)
	scratch := make([]float64, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, rhs)
		lu.SolveInPlace(x, scratch)
	}
}

// TestFactorizeIntoReuse factorizes a sequence of different matrices into
// one LU with one scratch, checking every factorization against a fresh
// Factorize and verifying that the scratch invariants (zeroed value
// workspace, cleared marks) hold across calls — including after a singular
// failure in the middle of the sequence.
func TestFactorizeIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var lu LU
	var ws FactorScratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20)
		a := randomNonsingularCSC(rng, n, 0.3)
		if err := FactorizeInto(&lu, a, FactorOptions{}, &ws); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fresh, err := Factorize(a, FactorOptions{})
		if err != nil {
			t.Fatalf("trial %d fresh: %v", trial, err)
		}
		b := randomDense(rng, n)
		x := append([]float64(nil), b...)
		lu.SolveInPlace(x, make([]float64, n))
		want := append([]float64(nil), b...)
		fresh.SolveInPlace(want, make([]float64, n))
		if d := maxAbsDiff(x, want); d > 1e-10 {
			t.Fatalf("trial %d (n=%d): reused-LU solve differs from fresh by %g", trial, n, d)
		}
		if d := maxAbsDiff(a.MulVec(x), b); d > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, d)
		}
		// Interleave a singular matrix: the error must not poison the
		// scratch for subsequent factorizations.
		if trial%5 == 4 {
			sing := NewTriplet(3, 3)
			sing.Add(0, 0, 1)
			sing.Add(1, 0, 1) // duplicate column pattern → singular
			sing.Add(0, 1, 1)
			sing.Add(1, 1, 1)
			sing.Add(2, 2, 1)
			if err := FactorizeInto(&lu, sing.Compress(), FactorOptions{}, &ws); err == nil {
				t.Fatalf("trial %d: singular matrix factorized", trial)
			}
		}
	}
}

// TestFactorizeIntoZeroAllocs checks that repeated in-place factorization
// of same-shaped matrices settles into an allocation-free steady state.
func TestFactorizeIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(9))
	const n = 30
	mats := []*CSC{
		randomNonsingularCSC(rng, n, 0.2),
		randomNonsingularCSC(rng, n, 0.2),
	}
	var lu LU
	var ws FactorScratch
	for i := 0; i < 10; i++ {
		if err := FactorizeInto(&lu, mats[i%2], FactorOptions{}, &ws); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := FactorizeInto(&lu, mats[i%2], FactorOptions{}, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FactorizeInto allocates %.2f objects/op, want 0", allocs)
	}
}
