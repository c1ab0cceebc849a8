package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refFactorizeInto is FactorizeInto as it stood before its column loop
// learned to tell triangular columns from the rest: every column takes the
// depth-first reach, the dense accumulator and the visited flags. It is kept
// verbatim as the reference the column loop is held to, entry for entry.
func refFactorizeInto(lu *LU, a *CSC, opts FactorOptions, ws *FactorScratch) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("sparse: cannot factorize %dx%d matrix", a.Rows, a.Cols)
	}
	pivTol := opts.PivotTol
	if pivTol <= 0 || pivTol > 1 {
		pivTol = 0.1
	}
	dropTol := opts.DropTol
	if dropTol <= 0 {
		dropTol = 1e-14
	}

	order := opts.ColOrder
	if order == nil {
		ws.order = growInts(ws.order, n)
		order = refOrderByColumnNnz(a, ws)
	} else if len(order) != n {
		return fmt.Errorf("sparse: column order has length %d, want %d", len(order), n)
	}

	lu.N = n
	lu.Lp = append(lu.Lp[:0], 0)
	lu.Li = lu.Li[:0]
	lu.Lx = lu.Lx[:0]
	lu.Up = append(lu.Up[:0], 0)
	lu.Ui = lu.Ui[:0]
	lu.Ux = lu.Ux[:0]
	lu.lCols = lu.lCols[:0]
	lu.uCols = lu.uCols[:0]
	lu.Udiag = growFloats(lu.Udiag, n)
	lu.P = growInts(lu.P, n)
	lu.Pinv = growInts(lu.Pinv, n)
	lu.Q = growInts(lu.Q, n)
	lu.Qinv = growInts(lu.Qinv, n)
	for i := range lu.Pinv {
		lu.Pinv[i] = -1
	}

	// The accumulator and visited flags are maintained all-zero/all-false
	// between calls (every path below clears what it sets), so growth is
	// the only initialisation needed.
	x := growFloats(ws.x, n)
	mark := growBools(ws.mark, n)
	ws.x, ws.mark = x, mark
	pattern := ws.pattern[:0]
	dfsStack := ws.dfsStack[:0]
	posStack := ws.posStack[:0]

	// Row nonzero counts of A, used as a Markowitz-style sparsity
	// tie-break among numerically acceptable pivot candidates.
	rowCount := growInts(ws.rowCount, n)
	ws.rowCount = rowCount
	for i := range rowCount {
		rowCount[i] = 0
	}
	for _, i := range a.RowInd {
		rowCount[i]++
	}

	for k := 0; k < n; k++ {
		cj := order[k]
		lu.Q[k] = cj
		lu.Qinv[cj] = k

		// Pattern: reach of column cj's nonzeros in the graph of L,
		// collected in postorder (so reverse order is topological).
		pattern = pattern[:0]
		bi, bv := a.Col(cj)
		for _, root := range bi {
			if mark[root] {
				continue
			}
			// Iterative DFS with explicit position stack.
			dfsStack = append(dfsStack[:0], root)
			posStack = append(posStack[:0], 0)
			mark[root] = true
			for len(dfsStack) > 0 {
				node := dfsStack[len(dfsStack)-1]
				pos := posStack[len(posStack)-1]
				expanded := false
				if piv := lu.Pinv[node]; piv >= 0 {
					lo, hi := lu.Lp[piv], lu.Lp[piv+1]
					for p := lo + pos; p < hi; p++ {
						child := lu.Li[p]
						posStack[len(posStack)-1] = p - lo + 1
						if !mark[child] {
							mark[child] = true
							dfsStack = append(dfsStack, child)
							posStack = append(posStack, 0)
							expanded = true
							break
						}
					}
				}
				if !expanded {
					pattern = append(pattern, node)
					dfsStack = dfsStack[:len(dfsStack)-1]
					posStack = posStack[:len(posStack)-1]
				}
			}
		}

		// Numeric sparse triangular solve x = L \ B(:, cj) over the
		// pattern, in topological (reverse postorder) order.
		for p, i := range bi {
			x[i] = bv[p]
		}
		for t := len(pattern) - 1; t >= 0; t-- {
			i := pattern[t]
			piv := lu.Pinv[i]
			if piv < 0 {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for p := lu.Lp[piv]; p < lu.Lp[piv+1]; p++ {
				x[lu.Li[p]] -= lu.Lx[p] * xi
			}
		}

		// Pivot selection among unpivoted pattern rows: threshold
		// partial pivoting. Any candidate within pivTol of the
		// largest magnitude is numerically acceptable; among those we
		// pick the row with the fewest nonzeros in A (Markowitz-style
		// tie-break) to limit fill-in.
		var maxAbs float64
		for _, i := range pattern {
			if lu.Pinv[i] >= 0 {
				continue
			}
			if abs := math.Abs(x[i]); abs > maxAbs {
				maxAbs = abs
			}
		}
		if maxAbs < dropTol {
			for _, i := range pattern {
				x[i] = 0
				mark[i] = false
			}
			ws.pattern, ws.dfsStack, ws.posStack = pattern, dfsStack, posStack
			return fmt.Errorf("%w: no pivot in column %d (step %d)", ErrSingular, cj, k)
		}
		pivRow := -1
		bestCount := math.MaxInt
		for _, i := range pattern {
			if lu.Pinv[i] >= 0 {
				continue
			}
			if math.Abs(x[i]) >= pivTol*maxAbs && rowCount[i] < bestCount {
				bestCount = rowCount[i]
				pivRow = i
			}
		}

		pivVal := x[pivRow]
		lu.P[k] = pivRow
		lu.Pinv[pivRow] = k
		lu.Udiag[k] = pivVal

		// Emit U column k (pivoted rows) and L column k (unpivoted).
		for _, i := range pattern {
			v := x[i]
			x[i] = 0
			mark[i] = false
			if i == pivRow {
				continue
			}
			if piv := lu.Pinv[i]; piv >= 0 && piv < k {
				if math.Abs(v) > dropTol {
					lu.Ui = append(lu.Ui, piv)
					lu.Ux = append(lu.Ux, v)
				}
			} else {
				l := v / pivVal
				if math.Abs(l) > dropTol {
					lu.Li = append(lu.Li, i) // original row index for now
					lu.Lx = append(lu.Lx, l)
				}
			}
		}
		if len(lu.Li) > lu.Lp[k] {
			lu.lCols = append(lu.lCols, k)
		}
		if len(lu.Ui) > lu.Up[k] || pivVal != 1 {
			lu.uCols = append(lu.uCols, k)
		}
		lu.Lp = append(lu.Lp, len(lu.Li))
		lu.Up = append(lu.Up, len(lu.Ui))
	}

	// Remap L's row indices from original rows to pivot positions.
	for p, i := range lu.Li {
		lu.Li[p] = lu.Pinv[i]
	}
	ws.pattern, ws.dfsStack, ws.posStack = pattern, dfsStack, posStack
	return nil
}

// refOrderByColumnNnz is the column order of refFactorizeInto, verbatim.
func refOrderByColumnNnz(a *CSC, ws *FactorScratch) []int {
	n := a.Cols
	order := ws.order[:n]
	for j := range order {
		order[j] = j
	}
	// Counting sort by nnz keeps this O(n + nnz).
	maxNnz := 0
	for j := 0; j < n; j++ {
		if c := a.ColNnz(j); c > maxNnz {
			maxNnz = c
		}
	}
	buckets := growInts(ws.buckets, maxNnz+2)
	ws.buckets = buckets
	for i := range buckets {
		buckets[i] = 0
	}
	for j := 0; j < n; j++ {
		buckets[a.ColNnz(j)+1]++
	}
	for c := 1; c < len(buckets); c++ {
		buckets[c] += buckets[c-1]
	}
	for j := 0; j < n; j++ {
		c := a.ColNnz(j)
		order[buckets[c]] = j
		buckets[c]++
	}
	return order
}

// sameFloatBits reports whether two slices hold the same float64 bit patterns.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// factorDiff names the first array in which two factorizations differ, or
// returns "" when every L, U, P, Q entry and both work lists are the same.
func factorDiff(got, want *LU) string {
	n := want.N
	switch {
	case got.N != n:
		return "N"
	case !slices.Equal(got.Lp, want.Lp):
		return "Lp"
	case !slices.Equal(got.Li, want.Li):
		return "Li"
	case !sameFloatBits(got.Lx, want.Lx):
		return "Lx"
	case !slices.Equal(got.Up, want.Up):
		return "Up"
	case !slices.Equal(got.Ui, want.Ui):
		return "Ui"
	case !sameFloatBits(got.Ux, want.Ux):
		return "Ux"
	case !sameFloatBits(got.Udiag[:n], want.Udiag[:n]):
		return "Udiag"
	case !slices.Equal(got.P[:n], want.P[:n]):
		return "P"
	case !slices.Equal(got.Pinv[:n], want.Pinv[:n]):
		return "Pinv"
	case !slices.Equal(got.Q[:n], want.Q[:n]):
		return "Q"
	case !slices.Equal(got.Qinv[:n], want.Qinv[:n]):
		return "Qinv"
	case !slices.Equal(got.lCols, want.lCols):
		return "lCols"
	case !slices.Equal(got.uCols, want.uCols):
		return "uCols"
	}
	return ""
}

// gatherColumns builds the square matrix whose column k is column cols[k] of
// a, the copy a simplex basis used to be factorized from.
func gatherColumns(a *CSC, cols []int) *CSC {
	b := &CSC{Rows: a.Rows, Cols: len(cols), ColPtr: []int{0}}
	for _, j := range cols {
		rows, vals := a.Col(j)
		b.RowInd = append(b.RowInd, rows...)
		b.Val = append(b.Val, vals...)
		b.ColPtr = append(b.ColPtr, len(b.RowInd))
	}
	return b
}

// scatterColumns hides the columns of the square matrix a in a wider one:
// in reverse order at the odd positions, with a column of other entries
// before each and after the last. cols says where each went.
func scatterColumns(a *CSC) (wide *CSC, cols []int) {
	n := a.Cols
	wide = &CSC{Rows: a.Rows, Cols: 2*n + 1, ColPtr: []int{0}}
	cols = make([]int, n)
	decoy := func(k int) {
		if a.Rows > 0 {
			wide.RowInd = append(wide.RowInd, k%a.Rows)
			wide.Val = append(wide.Val, float64(k)+0.5)
		}
		wide.ColPtr = append(wide.ColPtr, len(wide.RowInd))
	}
	for k := n - 1; k >= 0; k-- {
		decoy(k)
		cols[k] = len(wide.ColPtr) - 1
		rows, vals := a.Col(k)
		wide.RowInd = append(wide.RowInd, rows...)
		wide.Val = append(wide.Val, vals...)
		wide.ColPtr = append(wide.ColPtr, len(wide.RowInd))
	}
	decoy(n)
	return wide, cols
}

// factorForms holds one matrix after another to the reference loop, in both
// forms the column loop takes it in: every column of a square matrix, and
// selected columns of a wider one. Each of the three has an LU and a scratch
// of its own that live across checks, as a simplex workspace's do, so what a
// factorization leaves behind — after a failure too — meets the next one.
type factorForms struct {
	ref, all, sel struct {
		lu LU
		ws FactorScratch
	}
}

// check factorizes the columns cols of a (the square matrix a itself when
// cols is nil) three ways and fails unless the reference, FactorizeInto on
// the square copy and FactorizeColumnsInto on the selection agree on the
// error and, without one, on every entry of the factors. It returns the
// selection's factors and the error.
func (f *factorForms) check(t testing.TB, label string, a *CSC, cols []int, opts FactorOptions) (*LU, error) {
	t.Helper()
	square, wide, pick := a, a, cols
	if cols == nil {
		wide, pick = scatterColumns(a)
	} else {
		square = gatherColumns(a, cols)
	}
	want := refFactorizeInto(&f.ref.lu, square, opts, &f.ref.ws)
	for _, form := range []struct {
		name string
		lu   *LU
		err  error
	}{
		{"all columns", &f.all.lu, FactorizeInto(&f.all.lu, square, opts, &f.all.ws)},
		{"selected columns", &f.sel.lu, FactorizeColumnsInto(&f.sel.lu, wide, pick, opts, &f.sel.ws)},
	} {
		if (form.err == nil) != (want == nil) || (want != nil && form.err.Error() != want.Error()) {
			t.Fatalf("%s, %s: error %v, reference %v", label, form.name, form.err, want)
		}
		if want == nil {
			if d := factorDiff(form.lu, &f.ref.lu); d != "" {
				t.Fatalf("%s, %s: %s differs from the reference", label, form.name, d)
			}
		}
	}
	for _, ws := range []*FactorScratch{&f.all.ws, &f.sel.ws} {
		if slices.Contains(ws.mark, true) || slices.ContainsFunc(ws.x, func(v float64) bool { return math.Float64bits(v) != 0 }) {
			t.Fatalf("%s: the scratch was left dirty", label)
		}
	}
	return &f.sel.lu, want
}

// census counts the columns by the branch of the column loop they take.
type census struct{ singleton, trivial, general int }

func (c *census) add(o census) {
	c.singleton += o.singleton
	c.trivial += o.trivial
	c.general += o.general
}

// censusOf reads, off a finished factorization of the matrix b, which branch
// each column took. The branch is decided by what had been pivoted when the
// column came up, and the factors still say that: row i was a pivot before
// step k exactly when Pinv[i] < k, and a pivot's L column, once emitted, does
// not change.
func censusOf(lu *LU, b selection) census {
	var c census
	for k := 0; k < lu.N; k++ {
		rows, _ := b.col(lu.Q[k])
		reaches := false
		for _, i := range rows {
			if piv := lu.Pinv[i]; piv < k && lu.Lp[piv+1] > lu.Lp[piv] {
				reaches = true
			}
		}
		switch {
		case len(rows) == 1 && lu.Pinv[rows[0]] >= k:
			c.singleton++
		case !reaches:
			c.trivial++
		default:
			c.general++
		}
	}
	return c
}

// basisShaped draws a matrix with the make-up of a branch-and-bound node's
// basis: about half the columns are slacks, a third are structural columns
// over slack rows plus one row of their own — triangular as they stand — and
// the rest couple rows among themselves, which is where L gets its entries
// and later columns their reach.
func basisShaped(rng *rand.Rand, n int) basisCase {
	bc := identityCase(fmt.Sprintf("basis-shaped n=%d", n), n)
	slacks := n / 2
	coupled := n - n/6
	for j := slacks; j < n; j++ {
		col := map[int]float64{j: 1 + rng.Float64()}
		for e := 1 + rng.Intn(2); e > 0; e-- {
			col[rng.Intn(slacks)] = rng.NormFloat64()
		}
		if j >= coupled {
			for e := 1 + rng.Intn(3); e > 0; e-- {
				col[coupled+rng.Intn(n-coupled)] += rng.NormFloat64()
			}
		}
		bc.cols[j] = col
	}
	return bc
}

// TestFactorizeMatchesReference holds the column loop to the reference loop
// on matrices picked to reach each of its branches and each way out of them.
// The cases run in order through one set of factors and scratches.
func TestFactorizeMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	reversed := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		return order
	}
	rng := rand.New(rand.NewSource(24))

	// The densest column comes last in the default order and has nothing on
	// row 199, which it alone could have pivoted.
	lateFailure := randomMix(rng, 200, 0.6)
	lateFailure.name = "failure in the last column of a large matrix"
	for _, col := range lateFailure.cols {
		delete(col, 199)
	}
	lateFailure.cols[199] = map[int]float64{}
	for i := 0; i < 199; i += 3 {
		lateFailure.cols[199][i] = 1 + float64(i)/200
	}

	type tcase struct {
		basisCase
		opts    FactorOptions
		wantErr bool
		errHas  string
		// branches the case must reach (checked on success only: a failed
		// factorization is not read back).
		singleton, trivial, general bool
	}
	cases := []tcase{
		{basisCase: basisShaped(rng, 450), singleton: true, trivial: true, general: true},
		{basisCase: basisShaped(rng, 60), opts: FactorOptions{ColOrder: reversed(60)}, trivial: true, general: true},
		{basisCase: randomMix(rng, 120, 0.5), opts: FactorOptions{PivotTol: 1, DropTol: 1e-3}, singleton: true, general: true},
		{
			// Column 1 is a singleton on the row column 0 pivoted: not its
			// own pivot, and with no L column to reach through, no pivot.
			basisCase: basisCase{"singleton on a pivoted row", []map[int]float64{{0: 1}, {0: 2}, {1: 1, 2: 1}}},
			wantErr:   true,
		},
		{
			// The same, but the pivot has an L column and the singleton
			// reaches row 1 through it.
			basisCase: basisCase{"singleton on a pivoted row with an L column", []map[int]float64{{0: 2, 1: 1}, {0: 3}, {1: 1, 2: 1}}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2}},
			trivial:   true, general: true,
		},
		{basisCase: basisCase{"singleton below dropTol", []map[int]float64{nil, {1: 9e-15}}}, wantErr: true},
		{basisCase: basisCase{"singleton at dropTol", []map[int]float64{nil, {1: 1e-14}}}, singleton: true},
		{basisCase: basisCase{"singleton below a set DropTol", []map[int]float64{nil, {1: -0.5}}}, opts: FactorOptions{DropTol: 0.6}, wantErr: true},
		{
			basisCase: basisCase{"trivial reach, unpivoted entries below dropTol", []map[int]float64{nil, {0: 5, 1: 1e-15, 2: -1e-16}, nil}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2}},
			wantErr:   true,
		},
		{
			basisCase: basisCase{"trivial reach, L and U entries below dropTol", []map[int]float64{nil, {0: 1e-15, 1: 1, 2: 1e-15}, nil}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2}},
			singleton: true, trivial: true,
		},
		{basisCase: basisCase{"NaN singleton", []map[int]float64{nil, {1: nan}}}, wantErr: true},
		{basisCase: basisCase{"+Inf singleton", []map[int]float64{nil, {1: inf}}}, singleton: true},
		{basisCase: basisCase{"-Inf singleton", []map[int]float64{{0: -inf}, nil}}, singleton: true},
		{
			basisCase: basisCase{"NaN and Inf in a trivial-reach column", []map[int]float64{nil, {0: nan, 1: 2, 2: nan, 3: -inf}, nil, {1: 1}}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2, 3}},
			singleton: true, trivial: true,
		},
		{
			basisCase: basisCase{"only NaN off the pivoted rows", []map[int]float64{nil, {0: 1, 1: nan, 2: nan}, nil}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2}},
			wantErr:   true,
		},
		{
			// Column 0 leaves an L column on row 0; column 1 reaches rows
			// 1 and 2 through it, where its NaN and Inf are waiting.
			basisCase: basisCase{"NaN and Inf through the reach", []map[int]float64{{0: 4, 1: 1, 2: 1, 3: 1}, {0: 1, 1: nan, 2: inf, 3: 2}, {1: 1}, {3: 1}}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2, 3}},
			singleton: true, trivial: true, general: true,
		},
		{
			// Column 1 is twice column 0: the reach cancels it to zero.
			basisCase: basisCase{"general path, nothing left to pivot on", []map[int]float64{{0: 2, 1: 1}, {0: 4, 1: 2}}},
			opts:      FactorOptions{ColOrder: []int{0, 1}},
			wantErr:   true,
		},
		{
			// Rows 1, 2 and 3 are all within the threshold of the largest
			// entry; rows 2 and 3 tie on the fewest nonzeros.
			basisCase: basisCase{"rowCount tie, trivial reach", []map[int]float64{{1: 1, 2: 0.5, 3: 0.2}, {1: 1, 2: 1}, {1: 1, 3: 1}, {0: 1, 1: 1}}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2, 3}},
			trivial:   true, general: true,
		},
		{
			// The same tie one step later, among rows found by the search.
			basisCase: basisCase{"rowCount tie, general path", []map[int]float64{{0: 2, 4: 1}, {1: 1, 2: 0.5, 3: 0.2, 4: 1}, {1: 1, 2: 1}, {1: 1, 3: 1}, {0: 1, 1: 1, 4: 3}}},
			opts:      FactorOptions{ColOrder: []int{0, 1, 2, 3, 4}},
			trivial:   true, general: true,
		},
		{
			basisCase: basisCase{"pivoted rows with empty L only", []map[int]float64{nil, nil, {0: 3, 1: -2, 2: 4, 3: 1}, {0: 1, 3: 5}}},
			singleton: true, trivial: true,
		},
		{basisCase: lateFailure, wantErr: true, errHas: "(step 199)"},
		{basisCase: basisCase{"small success after the failure", []map[int]float64{nil, {1: 2, 3: 1}, nil, nil}}, singleton: true, trivial: true},
	}

	var forms factorForms
	var seen census
	for _, tc := range cases {
		a := tc.csc()
		lu, err := forms.check(t, tc.name, a, nil, tc.opts)
		if (err != nil) != tc.wantErr || (err != nil && !strings.Contains(err.Error(), tc.errHas)) {
			t.Fatalf("%s: error %v, want one: %v with %q", tc.name, err, tc.wantErr, tc.errHas)
		}
		if err != nil {
			continue
		}
		c := censusOf(lu, selection{a: a})
		if tc.singleton && c.singleton == 0 || tc.trivial && c.trivial == 0 || tc.general && c.general == 0 {
			t.Errorf("%s: %+v, a branch the case is there for was not reached", tc.name, c)
		}
		seen.add(c)
	}
	if seen.singleton == 0 || seen.trivial == 0 || seen.general == 0 {
		t.Errorf("columns by branch %+v: one was never taken", seen)
	}

	// The error names the column by its position in the selection.
	wide, pick := scatterColumns(cases[3].csc())
	err := FactorizeColumnsInto(&LU{}, wide, pick, FactorOptions{}, &FactorScratch{})
	if err == nil || err.Error() != "sparse: matrix is singular: no pivot in column 1 (step 1)" {
		t.Errorf("singular selection: %v", err)
	}
	if err := FactorizeColumnsInto(&LU{}, wide, pick[:2], FactorOptions{}, &FactorScratch{}); err == nil || err.Error() != "sparse: cannot factorize 3x2 matrix" {
		t.Errorf("two columns of three rows: %v", err)
	}
}

// nearTriangular builds a matrix from fuzz bytes: data[0] sets the share of
// unit slack columns between 0 and 95 %, the rest draw small structural
// columns, and the column order is shuffled from the same bytes.
func nearTriangular(n int, data []byte) (*CSC, []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	share := next() % 96
	tr := NewTriplet(n, n)
	for j := 0; j < n; j++ {
		if next()%100 < share {
			tr.Add(j, j, 1)
			continue
		}
		tr.Add(j, j, float64(1+next()%7))
		for e := next() % 4; e > 0; e-- {
			tr.Add(next()%n, j, float64(next()%9-4)/2)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := next() % (i + 1)
		order[i], order[k] = order[k], order[i]
	}
	return tr.Compress(), order
}

// FuzzFactorizeMatchesReference holds both forms of the column loop to the
// reference on near-triangular matrices, under the default column order and
// a shuffled one. Singular draws count: the error must match too.
func FuzzFactorizeMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, share := range []byte{0, 40, 70, 95} {
		seed := make([]byte, 300)
		rng.Read(seed)
		seed[0] = share
		f.Add(uint8(40), seed)
	}
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := 1 + int(size)%64
		a, order := nearTriangular(n, data)
		var forms factorForms
		forms.check(t, "default order", a, nil, FactorOptions{})
		forms.check(t, "shuffled order", a, nil, FactorOptions{ColOrder: order})
	})
}
