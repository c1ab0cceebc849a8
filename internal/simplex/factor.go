package simplex

import (
	"math"
	"slices"

	"milpjoin/internal/sparse"
)

// factorSlots is how many fresh LU factorizations a workspace retains. A
// branch-and-bound worker asks for the same basis again within an LP or two
// (a node's end-of-solve factor is its children's warm basis, and the warm
// basis of one child is the warm basis of its sibling), so a second slot
// turns most warm starts into adoptions. Measured on the benchmark's
// milp-search pool (6,555 nodes, 6,601 warm starts), share of warm starts
// that adopt → factorizations per node: 1 slot 36 % → 1.30, 2 slots 59 % →
// 1.06, 3 slots 64 % → 1.02, 4 slots 67 % → 0.98. Each slot costs one LU of
// the basis in memory, and the third buys 0.04.
const factorSlots = 2

// factorSlot is one retained factorization and the key of what it factors:
// lu is exactly what sparse.FactorizeInto produces for the columns of a
// selected, in order, by head. LU is a deterministic function of that pair,
// so a slot whose key matches can stand in for a new factorization bit for
// bit. a == nil marks a slot that is empty or whose factorization failed.
type factorSlot struct {
	lu   sparse.LU
	a    *sparse.CSC
	head []int
	// rowP is a's row indices mapped through lu.Pinv, entry for entry: the
	// coordinates btran leaves y in, so that pricing reads y[i] of row i at
	// y[rowP[p]] without a scatter. Rebuilt with every factorization.
	rowP []int
	used uint64 // basisFactor.clock when last factorized or adopted
}

// eta records one product-form-of-inverse update: the basis column at
// position r was replaced, and w = B⁻¹·a_enter is the transformed entering
// column. Applying the update to a vector costs O(nnz(w)). ind, val and next
// are windows into the factor's eta arena.
//
// Every entry also has an address, its place in the eta file counted from
// the first entry of the oldest eta, and is a link in its position's chain
// of the row file (see basisFactor.rowHead). Links hold address + 1, so that
// 0 ends a chain.
type eta struct {
	r    int       // basis position that changed
	wr   float64   // pivot element w[r]
	ind  []int32   // ascending indices i ≠ r with w[i] ≠ 0
	val  []float64 // matching values
	next []int32   // per entry, the link to the next older entry at its position
	base int       // link of ind[0]: entry k has link base+k
	// rlink is the link to the newest entry at position r among the older
	// etas: where the sparse pull starts r's chain once v[r] turns nonzero.
	rlink int32
}

// etaChunkCols sizes the chunks of the eta arena: each has room for this many
// full-length entering columns. The arena grows by whole chunks that are
// never reallocated, so what a solve allocates for its eta file is what the
// file holds, rounded up to a chunk. (One contiguous arena grown by append
// copies itself on the way: measured on the benchmark's milp-search pool it
// allocated 18.7 MB against 15.0 MB for per-eta slices, 12.8 MB when doubled
// by hand, and 6.1 MB in chunks.)
const etaChunkCols = 8

// etaChunk is one fixed-size piece of the eta arena. Its indices and row
// links are int32, so an entry takes the 16 bytes an int index and a value
// took before the row file existed.
type etaChunk struct {
	ind  []int32
	next []int32
	val  []float64
}

// basisFactor maintains B = B₀·E₁···E_k as a sparse LU factorization of B₀
// plus an eta file, and answers FTRAN/BTRAN solves against the current B.
//
// B₀ lives in one of factorSlots retained factorizations; the others keep
// bases factorized earlier so that load can adopt them instead of
// factorizing again. The slots share the factorization scratch and the eta
// file, and all of it is reused across solves, so a warmed-up basisFactor
// refactorizes, adopts and updates without heap allocation.
type basisFactor struct {
	m     int
	slots [factorSlots]factorSlot
	clock uint64 // advances per load; orders slots by recency
	cur   int    // slot holding B₀
	// work is the one slot the running solve factorizes into (-1: not
	// chosen yet), so that a long solve rebuilds in place instead of
	// rotating through every slot.
	work int

	fws sparse.FactorScratch // factorization working storage

	etas    []eta
	chunks  []etaChunk // eta arena, retained across solves
	chunk   int        // chunk the next eta is written to
	fill    int        // offset in that chunk where it will start
	etaNnz  int        // entries in the eta file: the address of the next one
	scratch []float64

	// The row file: per basis position, the link to its newest eta entry,
	// whose next links to the one before (0: none). All-zero while the eta
	// file is empty.
	rowHead []int32
	// pull is the working list of the sparse pull (capacity m).
	pull []pullItem

	// Working storage of ftranColumn: the LU's pivot-coordinate scratch, and
	// the basis positions where the result may be nonzero (all-clear
	// between calls).
	solve sparse.SolveScratch
	marks sparse.Bitset
}

// reset prepares the factor for a new solve over an m-row basis, keeping
// buffer capacity and — unless m changed — the retained factorizations. An
// eta chunk is kept while it has room for etaChunkCols full columns of m,
// so a workspace handed from a larger problem to a smaller one reuses its
// eta arena.
func (f *basisFactor) reset(m int) {
	if m != f.m {
		for i := range f.slots {
			f.slots[i].a = nil
		}
		kept := f.chunks[:0]
		for _, c := range f.chunks {
			if len(c.ind) >= etaChunkCols*m {
				kept = append(kept, c)
			}
		}
		clear(f.chunks[len(kept):])
		f.chunks = kept
	}
	f.m = m
	f.scratch = growFloats(f.scratch, m)
	f.marks = sparse.GrowBitset(f.marks, m)
	if cap(f.rowHead) < m {
		f.rowHead = make([]int32, m)
		f.pull = make([]pullItem, 0, m)
	}
	f.rowHead = f.rowHead[:m]
	f.clearEtas()
	f.work = -1
}

func (f *basisFactor) clearEtas() {
	f.etas = f.etas[:0]
	f.chunk, f.fill = 0, 0
	f.etaNnz = 0
	clear(f.rowHead)
}

// load makes the factor represent exactly the basis columns of a selected by
// head, with an empty eta file, and reports whether it had to compute an LU
// factorization for that. A retained slot with the same key is adopted as
// is; otherwise the basis is factorized into the solve's work slot, chosen
// on first need as the least recently used one.
// On error that slot is left invalid (never adoptable) and the caller must
// load another basis before solving against the factor again.
func (f *basisFactor) load(a *sparse.CSC, head []int) (factorized bool, err error) {
	f.clock++
	for i := range f.slots {
		if sl := &f.slots[i]; sl.a == a && slices.Equal(sl.head, head) {
			sl.used = f.clock
			f.cur = i
			f.clearEtas()
			return false, nil
		}
	}
	if f.work < 0 {
		f.work = 0
		for i := range f.slots {
			if f.slots[i].used < f.slots[f.work].used {
				f.work = i
			}
		}
	}
	sl := &f.slots[f.work]
	sl.a, sl.used = nil, 0
	if err := sparse.FactorizeColumnsInto(&sl.lu, a, head, sparse.FactorOptions{}, &f.fws); err != nil {
		return false, err
	}
	sl.a, sl.used = a, f.clock
	sl.head = append(sl.head[:0], head...)
	sl.rowP = growInts(sl.rowP, len(a.RowInd))
	for p, i := range a.RowInd {
		sl.rowP[p] = sl.lu.Pinv[i]
	}
	f.cur = f.work
	f.clearEtas()
	return true, nil
}

// keep leaves the current slot, just loaded with the solve's warm basis,
// intact for the next solve that starts from the same basis: the work slot
// is chosen anew, and being the least recently used it is another one.
func (f *basisFactor) keep() { f.work = -1 }

// numEtas returns the current eta-file length.
func (f *basisFactor) numEtas() int { return len(f.etas) }

// ftran solves B·x = v in place. v must have length m.
//
// B_k⁻¹ = E_k⁻¹···E₁⁻¹·B₀⁻¹, so the LU solve comes first and the eta
// updates apply in creation order.
func (f *basisFactor) ftran(v []float64) {
	f.slots[f.cur].lu.SolveInPlace(v, f.scratch)
	for e := range f.etas {
		et := &f.etas[e]
		vr := v[et.r] / et.wr
		v[et.r] = vr
		if vr == 0 {
			continue
		}
		for k, i := range et.ind {
			v[i] -= et.val[k] * vr
		}
	}
}

// ftranColumn solves B·w = a for the column a whose entries are vals at
// rows, as ftran would, at a cost set by the nonzeros. w must be zero (of
// either sign) on entry; it is written only where the result may be nonzero.
// The positions where w is nonzero are appended to ind, ascending.
func (f *basisFactor) ftranColumn(rows []int, vals []float64, w []float64, ind []int) []int {
	f.slots[f.cur].lu.SolveColumnInto(rows, vals, w, f.marks, &f.solve)
	for e := range f.etas {
		et := &f.etas[e]
		vr := w[et.r] / et.wr
		w[et.r] = vr
		if vr == 0 {
			continue
		}
		for k, i := range et.ind {
			w[i] -= et.val[k] * vr
			f.marks.Set(int(i))
		}
	}
	return f.marks.Collect(ind, w)
}

// btran solves Bᵀ·y = c, c indexed by basis position, and leaves y in the
// pivot-row coordinates of the current LU: the value of row i sits at
// y[Pinv[i]], so column j's inner product with it runs over rowP (see
// colDot). c is only read; y must have length m.
//
// B_k⁻ᵀ = B₀⁻ᵀ·E₁⁻ᵀ···E_k⁻ᵀ, so the eta updates apply in reverse creation
// order, followed by the transposed LU solve.
func (f *basisFactor) btran(c, y []float64) {
	if len(f.etas) > 0 {
		f.pullEtas(c, f.scratch)
		c = f.scratch
	}
	f.slots[f.cur].lu.SolveTransposeToPivot(c, y)
}

// pullEtas writes E₁⁻ᵀ···E_k⁻ᵀ·c to v. Each eta is a pull, a dot product
// of its entries with v, so the dense loop costs Σ nnz of the etas however
// sparse c is. The sparse pull costs about nnz(c) + k per eta instead, and
// is taken when that is at most half the dense cost. Both give every
// nonzero of v the same bits; a zero may differ in sign (see pullSparse).
func (f *basisFactor) pullEtas(c, v []float64) {
	copy(v, c)
	k := len(f.etas)
	// 2·(nnz(c) + k)·k ≤ Σ nnz exactly when nnz(c) ≤ most. The scan for the
	// nonzeros of c stops, a block at a time, once it has found more.
	most := f.etaNnz/(2*k) - k
	scan := most
	if btranHook != nil {
		scan = len(v)
	}
	pull := f.pull[:len(v)]
	n := 0
	for lo := 0; lo < len(v) && n <= scan; lo += 64 {
		for i, vi := range v[lo:min(lo+64, len(v))] {
			pull[n].pos = int32(lo + i) // kept only if vi ≠ 0
			if vi != 0 {
				n++
			}
		}
	}
	sparse := n <= most
	if btranHook != nil {
		sparse = btranHook(f, c, sparse)
	}
	if !sparse {
		f.pullDense(v)
		return
	}
	pull = pull[:n]
	for p := range pull {
		pull[p].cur = f.rowHead[pull[p].pos]
	}
	f.pullSparse(v, pull)
}

// btranHook, when a test has set it, is shown the right-hand side of every
// BTRAN through a non-empty eta file and the path pullEtas chose for it, and
// returns the path to take.
var btranHook func(f *basisFactor, c []float64, sparse bool) bool

// pullDense applies the eta file to v in place, reverse creation order.
func (f *basisFactor) pullDense(v []float64) {
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		s := v[et.r]
		for k, i := range et.ind {
			s -= et.val[k] * v[i]
		}
		v[et.r] = s / et.wr
	}
}

// pullItem is a position of the sparse pull and its cursor: the link to the
// newest entry at that position in the etas not yet applied.
type pullItem struct{ pos, cur int32 }

// pullSparse applies the eta file to v in place, as pullDense does, but
// visits only the positions in pull: the nonzeros of v on entry, ascending,
// each with the link to its newest eta entry.
//
// v changes only at an eta's pivot position, so pull, extended by every
// pivot position whose value comes out nonzero, holds every nonzero of v at
// every eta. An eta's indices ascend, so its terms at the positions in pull
// are the dense loop's nonzero terms in the dense loop's order; a term it
// leaves out multiplies a finite entry (update refuses others) by a zero,
// and subtracting a zero changes at most the sign of a zero. Walking the
// etas newest first, each cursor moves down its position's chain, so an
// entry is found in O(1) and the pull costs O(|pull|) per eta.
func (f *basisFactor) pullSparse(v []float64, pull []pullItem) {
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		r := et.r
		s := v[r]
		n := uint(len(et.val))
		val, next := et.val[:n], et.next[:n]
		for p := range pull {
			it := &pull[p]
			if k := uint(int(it.cur) - et.base); k < n {
				s -= val[k] * v[it.pos]
				it.cur = next[k]
			}
		}
		s /= et.wr
		v[r] = s
		if s == 0 {
			continue
		}
		// r has no entry of its own in this eta, so a cursor it already
		// has is in place; a position joining the pull starts at rlink.
		lo, hi := 0, len(pull)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); int(pull[mid].pos) < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(pull) || int(pull[lo].pos) != r {
			pull = slices.Insert(pull, lo, pullItem{int32(r), et.rlink})
		}
	}
}

// rowP returns the current LU's pivot positions of the constraint matrix's
// entries (see factorSlot.rowP).
func (f *basisFactor) rowP() []int { return f.slots[f.cur].rowP }

// unpivot writes y, left in pivot-row coordinates by btran, to dst by row.
func (f *basisFactor) unpivot(dst, y []float64) {
	for k, i := range f.slots[f.cur].lu.P {
		dst[i] = y[k]
	}
}

// colDot is column j of a times y, where y is in the pivot-row coordinates
// rowP maps a's entries to: a.ColDot(j, ·) of y by row, term for term.
func colDot(a *sparse.CSC, rowP []int, j int, y []float64) float64 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	vals := a.Val[lo:hi]
	rows := rowP[lo:hi]
	rows = rows[:len(vals)] // lets the compiler drop the bounds check on rows[p]
	var s float64
	for p, v := range vals {
		s += v * y[rows[p]]
	}
	return s
}

// update appends an eta for a pivot at basis position r with transformed
// entering column w (dense, length m) whose nonzeros sit at the positions
// ind, ascending. Returns false if the pivot element is numerically unusable
// or an entry of w is not finite, and a refactorization should happen
// instead.
func (f *basisFactor) update(r int, w []float64, ind []int) bool {
	wr := w[r]
	if !(math.Abs(wr) >= pivotTol) || math.IsInf(wr, 0) { // NaN fails the first test
		return false
	}
	if f.chunk == len(f.chunks) {
		n := etaChunkCols * f.m
		f.chunks = append(f.chunks, etaChunk{make([]int32, n), make([]int32, n), make([]float64, n)})
	}
	c := f.chunks[f.chunk]
	lo, hi := f.fill, f.fill
	for _, i := range ind {
		if i != r {
			wi := w[i]
			if math.IsNaN(wi) || math.IsInf(wi, 0) {
				return false
			}
			c.ind[hi], c.val[hi] = int32(i), wi
			hi++
		}
	}
	base := f.etaNnz + 1
	for k, i := range c.ind[lo:hi] {
		c.next[lo+k] = f.rowHead[i]
		f.rowHead[i] = int32(base + k)
	}
	f.etas = append(f.etas, eta{r: r, wr: wr, ind: c.ind[lo:hi], val: c.val[lo:hi], next: c.next[lo:hi],
		base: base, rlink: f.rowHead[r]})
	f.etaNnz += hi - lo
	f.fill = hi
	if len(c.ind)-hi < f.m {
		f.chunk, f.fill = f.chunk+1, 0 // no room left for another full column
	}
	return true
}
