package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrSingular reports that the matrix handed to Factorize is (numerically)
// singular.
var ErrSingular = errors.New("sparse: matrix is singular")

// LU is a sparse LU factorization P·A·Q = L·U produced by Factorize.
//
// L is unit lower triangular and U upper triangular, both stored by columns
// in pivot coordinates. P is the row permutation chosen by partial
// pivoting; Q is the column order chosen up front for sparsity.
type LU struct {
	N int

	// L: strictly lower triangular part, unit diagonal implicit.
	Lp []int
	Li []int
	Lx []float64

	// U: strictly upper triangular part plus a separate diagonal.
	Up    []int
	Ui    []int
	Ux    []float64
	Udiag []float64

	// P and Q as permutation vectors: P[k] is the original row at pivot
	// position k, Q[k] the original column at position k. Pinv and Qinv
	// are the inverse maps.
	P, Pinv []int
	Q, Qinv []int

	// Ascending pivot positions the triangular solves have work at: lCols
	// are the positions whose L column is non-empty, uCols those whose U
	// column has an off-diagonal entry or a diagonal other than 1. At every
	// other position a solve would subtract nothing and divide by 1, which
	// leaves the entry as it is bit for bit, so the solves walk these lists
	// instead of 0..N. A simplex basis is mostly slack columns and most
	// positions are on neither list.
	lCols, uCols []int
}

// FactorOptions control pivoting behaviour.
type FactorOptions struct {
	// PivotTol is the threshold partial pivoting tolerance in (0, 1].
	// 1.0 gives classical partial pivoting (most stable); smaller values
	// trade stability for sparsity. Zero means 0.1, the customary
	// default for simplex basis factorization.
	PivotTol float64
	// DropTol drops entries with absolute value below it during the
	// factorization. Zero keeps everything above 1e-14.
	DropTol float64
	// ColOrder optionally fixes the column order. When nil, columns are
	// ordered by ascending nonzero count, a cheap heuristic that exposes
	// the near-triangular structure of typical simplex bases.
	ColOrder []int
}

// FactorScratch holds the working storage of FactorizeInto so that repeated
// factorizations (simplex basis refactorization every few dozen pivots)
// reuse one arena instead of reallocating. The zero value is ready to use;
// buffers grow to the largest problem seen and are then reused. A scratch
// must not be shared between concurrent factorizations.
type FactorScratch struct {
	x        []float64 // dense accumulator (kept all-zero between calls)
	mark     []bool    // visited flags (kept all-false between calls)
	pattern  []int
	solved   []float64 // x gathered along pattern
	dfsStack []int
	posStack []int
	rowCount []int
	order    []int
	buckets  []int
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Factorize computes a sparse LU factorization of the square matrix a into
// a freshly allocated LU.
func Factorize(a *CSC, opts FactorOptions) (*LU, error) {
	lu := &LU{}
	if err := FactorizeInto(lu, a, opts, &FactorScratch{}); err != nil {
		return nil, err
	}
	return lu, nil
}

// FactorizeInto computes a sparse LU factorization of the square matrix a,
// reusing the storage already held by lu and the working arrays in ws. On
// error the contents of lu are unspecified and must not be solved against
// until a subsequent FactorizeInto succeeds.
//
// Every column of a must be free of duplicate rows and sorted by row, which
// is what Triplet.Compress guarantees.
func FactorizeInto(lu *LU, a *CSC, opts FactorOptions, ws *FactorScratch) error {
	return FactorizeColumnsInto(lu, a, nil, opts, ws)
}

// FactorizeColumnsInto is FactorizeInto of the square matrix whose column k
// is column cols[k] of a, without that matrix being built: a simplex basis is
// the columns of the constraint matrix its head names. Column numbers in
// opts.ColOrder, in LU.Q and in errors are positions in cols. A nil cols
// means every column of a, in order.
func FactorizeColumnsInto(lu *LU, a *CSC, cols []int, opts FactorOptions, ws *FactorScratch) error {
	if factorizeHook != nil {
		factorizeHook(a, cols, opts)
	}
	n := a.Rows
	b := selection{a, cols}
	if nc := b.numCols(); nc != n {
		return fmt.Errorf("sparse: cannot factorize %dx%d matrix", n, nc)
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
		order = orderByColumnNnz(b, ws)
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
	// between calls (the general path below clears what it sets before it
	// looks for a pivot), so growth is the only initialisation needed.
	x := growFloats(ws.x, n)
	mark := growBools(ws.mark, n)
	ws.x, ws.mark = x, mark
	pattern := ws.pattern[:0]
	solved := ws.solved[:0]
	dfsStack := ws.dfsStack[:0]
	posStack := ws.posStack[:0]

	// Row nonzero counts of the matrix, used as a Markowitz-style sparsity
	// tie-break among numerically acceptable pivot candidates.
	rowCount := growInts(ws.rowCount, n)
	ws.rowCount = rowCount
	for i := range rowCount {
		rowCount[i] = 0
	}
	for k := 0; k < n; k++ {
		rows, _ := b.col(k)
		for _, i := range rows {
			rowCount[i]++
		}
	}

	// hasL reports whether row i is a pivot whose L column is non-empty:
	// the rows through which a column's nonzeros reach further rows.
	hasL := func(i int) bool {
		piv := lu.Pinv[i]
		return piv >= 0 && lu.Lp[piv+1] > lu.Lp[piv]
	}

	singular := -1 // step that found no pivot
columns:
	for k := 0; k < n; k++ {
		cj := order[k]
		lu.Q[k] = cj
		lu.Qinv[cj] = k

		// rows and vals are x = L \ B(:, cj) on its pattern: the reach of the
		// column's nonzeros in the graph of L, in postorder. A simplex basis
		// is mostly triangular already, and a column none of whose rows has
		// an L column reaches only its own rows and solves to itself, so its
		// stored entries are that pattern and those values as they stand.
		// Only the rest pay for the depth-first search, the accumulator and
		// the visited flags. Either way the entries come in the order the
		// general path finds them, which is the order L and U are emitted in.
		rows, vals := b.col(cj)
		pivRow := -1
		var pivVal float64
		if len(rows) == 1 && lu.Pinv[rows[0]] < 0 {
			// A singleton on an unpivoted row is its own pivot.
			if !(math.Abs(vals[0]) >= dropTol) {
				singular = k
				break columns
			}
			pivRow, pivVal = rows[0], vals[0]
		} else {
			trivial := true
			for _, i := range rows {
				if hasL(i) {
					trivial = false
					break
				}
			}
			if !trivial {
				// Reach by iterative DFS with an explicit position stack. A
				// row without an L column has no children: it goes straight
				// onto the pattern, where pushing and popping it would put it.
				pattern = pattern[:0]
				for _, root := range rows {
					if mark[root] {
						continue
					}
					mark[root] = true
					if !hasL(root) {
						pattern = append(pattern, root)
						continue
					}
					dfsStack = append(dfsStack[:0], root)
					posStack = append(posStack[:0], 0)
					for len(dfsStack) > 0 {
						top := len(dfsStack) - 1
						node := dfsStack[top]
						piv := lu.Pinv[node]
						lo, hi := lu.Lp[piv], lu.Lp[piv+1]
						expanded := false
						for p := lo + posStack[top]; p < hi; p++ {
							child := lu.Li[p]
							if mark[child] {
								continue
							}
							mark[child] = true
							if !hasL(child) {
								pattern = append(pattern, child)
								continue
							}
							posStack[top] = p - lo + 1
							dfsStack = append(dfsStack, child)
							posStack = append(posStack, 0)
							expanded = true
							break
						}
						if !expanded {
							pattern = append(pattern, node)
							dfsStack = dfsStack[:top]
							posStack = posStack[:top]
						}
					}
				}

				// Numeric sparse triangular solve over the pattern, in
				// topological (reverse postorder) order.
				for p, i := range rows {
					x[i] = vals[p]
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
				solved = solved[:0]
				for _, i := range pattern {
					solved = append(solved, x[i])
					x[i] = 0
					mark[i] = false
				}
				rows, vals = pattern, solved
			}

			// Pivot selection among unpivoted pattern rows: threshold
			// partial pivoting. Any candidate within pivTol of the
			// largest magnitude is numerically acceptable; among those we
			// pick the row with the fewest nonzeros in the matrix
			// (Markowitz-style tie-break) to limit fill-in.
			var maxAbs float64
			for p, i := range rows {
				if lu.Pinv[i] >= 0 {
					continue
				}
				if abs := math.Abs(vals[p]); abs > maxAbs {
					maxAbs = abs
				}
			}
			if maxAbs < dropTol {
				singular = k
				break columns
			}
			bestCount := math.MaxInt
			for p, i := range rows {
				if lu.Pinv[i] >= 0 {
					continue
				}
				if math.Abs(vals[p]) >= pivTol*maxAbs && rowCount[i] < bestCount {
					bestCount = rowCount[i]
					pivRow, pivVal = i, vals[p]
				}
			}
		}

		lu.P[k] = pivRow
		lu.Pinv[pivRow] = k
		lu.Udiag[k] = pivVal

		// Emit U column k (pivoted rows) and L column k (unpivoted).
		for p, i := range rows {
			if i == pivRow {
				continue
			}
			v := vals[p]
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

	ws.pattern, ws.solved, ws.dfsStack, ws.posStack = pattern, solved, dfsStack, posStack
	if singular >= 0 {
		return fmt.Errorf("%w: no pivot in column %d (step %d)", ErrSingular, order[singular], singular)
	}

	// Remap L's row indices from original rows to pivot positions.
	for p, i := range lu.Li {
		lu.Li[p] = lu.Pinv[i]
	}
	return nil
}

// factorizeHook, when a test has set it, is shown what every factorization is
// asked for, so that the bases a whole search factorizes can be held to the
// reference loop. Nothing outside tests sets it.
var factorizeHook func(a *CSC, cols []int, opts FactorOptions)

// selection is the matrix FactorizeColumnsInto factorizes: the columns of a
// that pick names, or all of them when pick is nil.
type selection struct {
	a    *CSC
	pick []int
}

func (b selection) numCols() int {
	if b.pick == nil {
		return b.a.Cols
	}
	return len(b.pick)
}

func (b selection) col(k int) (rows []int, vals []float64) {
	if b.pick != nil {
		k = b.pick[k]
	}
	return b.a.Col(k)
}

func (b selection) colNnz(k int) int {
	if b.pick != nil {
		k = b.pick[k]
	}
	return b.a.ColNnz(k)
}

// orderByColumnNnz returns column indices sorted by ascending nonzero count
// (stable on ties by index), using ws.order and ws.buckets as storage.
func orderByColumnNnz(b selection, ws *FactorScratch) []int {
	n := b.numCols()
	order := ws.order[:n]
	for j := range order {
		order[j] = j
	}
	// Counting sort by nnz keeps this O(n + nnz).
	maxNnz := 0
	for j := 0; j < n; j++ {
		if c := b.colNnz(j); c > maxNnz {
			maxNnz = c
		}
	}
	buckets := growInts(ws.buckets, maxNnz+2)
	ws.buckets = buckets
	for i := range buckets {
		buckets[i] = 0
	}
	for j := 0; j < n; j++ {
		buckets[b.colNnz(j)+1]++
	}
	for c := 1; c < len(buckets); c++ {
		buckets[c] += buckets[c-1]
	}
	for j := 0; j < n; j++ {
		c := b.colNnz(j)
		order[buckets[c]] = j
		buckets[c]++
	}
	return order
}

// SolveInPlace solves A·x = b in pivot-free (original) coordinates. b is
// overwritten with x. scratch must have length N and is clobbered.
func (lu *LU) SolveInPlace(b, scratch []float64) {
	n := lu.N
	// y = P b
	for k := 0; k < n; k++ {
		scratch[k] = b[lu.P[k]]
	}
	lu.lowerSolve(scratch)
	lu.upperSolve(scratch)
	// x = Q z
	for k := 0; k < n; k++ {
		b[lu.Q[k]] = scratch[k]
	}
}

// SolveTransposeInPlace solves Aᵀ·y = c in original coordinates. c is
// overwritten with y. scratch must have length N and is clobbered.
func (lu *LU) SolveTransposeInPlace(c, scratch []float64) {
	lu.SolveTransposeToPivot(c, scratch)
	// y = Pᵀ v
	for k, i := range lu.P {
		c[i] = scratch[k]
	}
}

// SolveTransposeToPivot solves Aᵀ·y = c and leaves y in pivot-row
// coordinates: v[k] = y[P[k]]. c, in original coordinates, is only read; v
// must have length N. A caller that takes inner products of y with columns
// of a matrix reads y there through the column's row indices mapped by
// Pinv, and never scatters it.
func (lu *LU) SolveTransposeToPivot(c, v []float64) {
	// c' = Qᵀ c
	for k, j := range lu.Q {
		v[k] = c[j]
	}
	lu.upperTransposeSolve(v)
	lu.lowerTransposeSolve(v)
}

// Bitset is a set of positions packed 64 to a word.
type Bitset []uint64

// GrowBitset returns b with room for positions 0..n-1, reusing its storage
// when it is large enough. Grown storage is all-clear; kept storage is as it
// was.
func GrowBitset(b Bitset, n int) Bitset {
	w := (n + 63) >> 6
	if cap(b) < w {
		return make(Bitset, w)
	}
	return b[:w]
}

// Set adds position i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (i & 63) }

// Collect appends to dst, ascending, the positions in b at which v is
// nonzero, and clears b.
func (b Bitset) Collect(dst []int, v []float64) []int {
	for wi, word := range b {
		if word == 0 {
			continue
		}
		b[wi] = 0
		for word != 0 {
			k := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if v[k] != 0 {
				dst = append(dst, k)
			}
		}
	}
	return dst
}

// SolveScratch is the working storage of SolveColumnInto: a vector in pivot
// coordinates kept all-zero between calls and the bitset of its positions
// that may be nonzero, kept all-clear. The zero value is ready to use and
// grows to the largest LU solved against. A scratch must not be shared
// between concurrent solves.
type SolveScratch struct {
	z    []float64
	mark Bitset
}

// SolveColumnInto solves A·x = b for the sparse right-hand side b whose
// entries are vals at the original rows rows, as SolveInPlace would, at a
// cost set by the nonzeros instead of by N. It writes x only where it is
// nonzero and sets those positions in marks (a Bitset over N positions);
// every other entry of x is left as it is, so a caller that wants x in full
// passes it zero.
//
// b is scattered straight into pivot coordinates through Pinv, and the
// triangular solves run off a bitset of the positions that may be nonzero,
// visiting them in the ascending (L) and descending (U) order of the dense
// loops. A position off the bitset holds zero, where the dense loop does no
// arithmetic that could make it nonzero, so every nonzero of x comes out of
// the same operations in the same order and has the bits SolveInPlace gives
// it; only the sign of a zero can differ.
func (lu *LU) SolveColumnInto(rows []int, vals []float64, x []float64, marks Bitset, ws *SolveScratch) {
	n := lu.N
	ws.z = growFloats(ws.z, n)
	ws.mark = GrowBitset(ws.mark, n)
	z, mark := ws.z, ws.mark
	lo, hi := len(mark), -1 // the words that may hold marks
	for p, i := range rows {
		k := lu.Pinv[i]
		z[k] = vals[p]
		mark.Set(k)
		lo, hi = min(lo, k>>6), max(hi, k>>6)
	}

	// L·y = Pb, ascending. L column k reaches only rows below k, so the
	// marks it adds lie ahead of the scan.
	for wi := lo; wi <= hi; wi++ {
		for word := mark[wi]; word != 0; {
			b := bits.TrailingZeros64(word)
			k := wi<<6 | b
			if yk := z[k]; yk != 0 {
				for p := lu.Lp[k]; p < lu.Lp[k+1]; p++ {
					i := lu.Li[p]
					z[i] -= lu.Lx[p] * yk
					mark.Set(i)
					hi = max(hi, i>>6)
				}
			}
			word = mark[wi] &^ (uint64(2)<<b - 1) // the marks above k
		}
	}

	// U·z = y, descending over the positions on uCols. U column k reaches
	// only rows above k, so the marks it adds lie ahead of the scan.
	for wi := hi; wi >= lo; wi-- {
		for word := mark[wi]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			k := wi<<6 | b
			if start, end := lu.Up[k], lu.Up[k+1]; start < end || lu.Udiag[k] != 1 {
				zk := z[k] / lu.Udiag[k]
				z[k] = zk
				if zk != 0 {
					for p := start; p < end; p++ {
						i := lu.Ui[p]
						z[i] -= lu.Ux[p] * zk
						mark.Set(i)
						lo = min(lo, i>>6)
					}
				}
			}
			word = mark[wi] & (uint64(1)<<b - 1) // the marks below k
		}
	}

	// x = Q z at the nonzeros, leaving the scratch all-zero and all-clear.
	for wi := lo; wi <= hi; wi++ {
		word := mark[wi]
		mark[wi] = 0
		for ; word != 0; word &= word - 1 {
			k := wi<<6 | bits.TrailingZeros64(word)
			if zk := z[k]; zk != 0 {
				x[lu.Q[k]] = zk
				marks.Set(lu.Q[k])
			}
			z[k] = 0
		}
	}
}

// lowerSolve solves L·y = y in place (pivot coordinates, unit diagonal).
func (lu *LU) lowerSolve(y []float64) {
	for _, k := range lu.lCols {
		yk := y[k]
		if yk == 0 {
			continue
		}
		for p := lu.Lp[k]; p < lu.Lp[k+1]; p++ {
			y[lu.Li[p]] -= lu.Lx[p] * yk
		}
	}
}

// upperSolve solves U·z = z in place (pivot coordinates).
func (lu *LU) upperSolve(z []float64) {
	for t := len(lu.uCols) - 1; t >= 0; t-- {
		k := lu.uCols[t]
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

// upperTransposeSolve solves Uᵀ·w = w in place.
func (lu *LU) upperTransposeSolve(w []float64) {
	for _, k := range lu.uCols {
		s := w[k]
		for p := lu.Up[k]; p < lu.Up[k+1]; p++ {
			s -= lu.Ux[p] * w[lu.Ui[p]]
		}
		w[k] = s / lu.Udiag[k]
	}
}

// lowerTransposeSolve solves Lᵀ·v = v in place (unit diagonal).
func (lu *LU) lowerTransposeSolve(v []float64) {
	for t := len(lu.lCols) - 1; t >= 0; t-- {
		k := lu.lCols[t]
		s := v[k]
		for p := lu.Lp[k]; p < lu.Lp[k+1]; p++ {
			s -= lu.Lx[p] * v[lu.Li[p]]
		}
		v[k] = s
	}
}

// Nnz returns the total number of stored entries in L and U (including the
// U diagonal).
func (lu *LU) Nnz() int { return len(lu.Li) + len(lu.Ui) + lu.N }
