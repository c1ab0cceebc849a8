package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestTripletCompressSumsDuplicates(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2)
	tr.Add(2, 1, 5)
	tr.Add(1, 1, -5)
	tr.Add(1, 1, 5) // cancels to zero, must be dropped
	m := tr.Compress()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %g, want 3", got)
	}
	if got := m.At(2, 1); got != 5 {
		t.Errorf("At(2,1) = %g, want 5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %g, want 0 after cancellation", got)
	}
	if m.Nnz() != 2 {
		t.Errorf("Nnz = %d, want 2", m.Nnz())
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewTriplet(2, 2).Add(2, 0, 1)
}

func TestCSCColumnsSorted(t *testing.T) {
	tr := NewTriplet(4, 2)
	tr.Add(3, 0, 1)
	tr.Add(0, 0, 2)
	tr.Add(2, 0, 3)
	m := tr.Compress()
	rows, vals := m.Col(0)
	wantRows := []int{0, 2, 3}
	wantVals := []float64{2, 3, 1}
	for k := range wantRows {
		if rows[k] != wantRows[k] || vals[k] != wantVals[k] {
			t.Fatalf("col 0 entry %d = (%d,%g), want (%d,%g)", k, rows[k], vals[k], wantRows[k], wantVals[k])
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomCSC(rng, rows, cols, 0.4)
		x := randomDense(rng, cols)
		got := m.MulVec(x)
		want := denseMulVec(m.Dense(), x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVec[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMulVecTAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomCSC(rng, rows, cols, 0.4)
		x := randomDense(rng, rows)
		got := m.MulVecT(x)
		d := m.Dense()
		for j := 0; j < cols; j++ {
			var want float64
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(got[j]-want) > 1e-12 {
				t.Fatalf("trial %d: MulVecT[%d] = %g, want %g", trial, j, got[j], want)
			}
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		m := randomCSC(rng, 2+rng.Intn(10), 2+rng.Intn(10), 0.3)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			t.Fatalf("transpose round trip changed shape")
		}
		for j := 0; j < m.Cols; j++ {
			for i := 0; i < m.Rows; i++ {
				if m.At(i, j) != tt.At(i, j) {
					t.Fatalf("entry (%d,%d) changed: %g vs %g", i, j, m.At(i, j), tt.At(i, j))
				}
			}
		}
	}
}

func TestColDot(t *testing.T) {
	tr := NewTriplet(3, 2)
	tr.Add(0, 0, 2)
	tr.Add(2, 0, 4)
	tr.Add(1, 1, 3)
	m := tr.Compress()
	x := []float64{1, 10, 100}
	if got := m.ColDot(0, x); got != 402 {
		t.Errorf("ColDot(0) = %g, want 402", got)
	}
	if got := m.ColDot(1, x); got != 30 {
		t.Errorf("ColDot(1) = %g, want 30", got)
	}
}

// --- helpers ---

func randomCSC(rng *rand.Rand, rows, cols int, density float64) *CSC {
	tr := NewTriplet(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				tr.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return tr.Compress()
}

func randomDense(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return d
}

func denseMulVec(a [][]float64, x []float64) []float64 {
	y := make([]float64, len(a))
	for i := range a {
		for j := range a[i] {
			y[i] += a[i][j] * x[j]
		}
	}
	return y
}
