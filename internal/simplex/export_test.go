package simplex

import (
	"math"
	"sync"
	"testing"
)

// What the external tests of this package (package simplex_test, which can
// import the solver stack above it) need of its internals.

const RaceEnabled = raceEnabled

// BtranTally counts the BTRANs through a non-empty eta file that
// CheckEveryBtran was shown: how many pullEtas sent down the sparse pull,
// and how many had a unit vector for a right-hand side (the dual loop's
// pivot row).
type BtranTally struct {
	mu                  sync.Mutex
	calls, sparse, unit int
}

// Counts returns the tally so far.
func (b *BtranTally) Counts() (calls, sparse, unit int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls, b.sparse, b.unit
}

// CheckEveryBtran runs, until t ends, every BTRAN through a non-empty eta
// file down both the dense and the sparse pull before it runs as pullEtas
// chose, and fails t unless both give y the same bits, zeros' signs aside.
func CheckEveryBtran(t testing.TB) *BtranTally {
	tally := &BtranTally{}
	btranHook = func(f *basisFactor, c []float64, sparse bool) bool {
		yDense, ySparse, _, _ := btranBothWays(f, c)
		tally.mu.Lock()
		defer tally.mu.Unlock()
		if i := differsBeyondZeroSign(yDense, ySparse); i >= 0 {
			t.Errorf("BTRAN %d (%d etas): y[%d] = %v sparse, %v dense", tally.calls, f.numEtas(), i, ySparse[i], yDense[i])
		}
		tally.calls++
		if sparse {
			tally.sparse++
		}
		if isUnit(c) {
			tally.unit++
		}
		return sparse
	}
	t.Cleanup(func() { btranHook = nil })
	return tally
}

// isUnit reports whether c is ±e_i for some i.
func isUnit(c []float64) bool {
	n := 0
	for _, x := range c {
		if x != 0 {
			if math.Abs(x) != 1 {
				return false
			}
			n++
		}
	}
	return n == 1
}
