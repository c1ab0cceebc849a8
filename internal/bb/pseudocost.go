package bb

import "sync"

// pseudocosts track the average objective degradation per unit of
// fractionality observed when branching a variable up or down. They guide
// branching toward variables whose bound changes move the LP bound most.
type pseudocosts struct {
	mu      sync.Mutex
	upSum   []float64
	upCnt   []int
	downSum []float64
	downCnt []int
	inits   int // variables with at least one observation
}

// reset readies pc for n variables without observations, keeping its
// storage.
func (pc *pseudocosts) reset(n int) {
	pc.upSum = growZeroed(pc.upSum, n)
	pc.upCnt = growZeroed(pc.upCnt, n)
	pc.downSum = growZeroed(pc.downSum, n)
	pc.downCnt = growZeroed(pc.downCnt, n)
	pc.inits = 0
}

// record logs the observed degradation for branching variable v in the
// given direction with the given consumed fractionality.
func (pc *pseudocosts) record(v int, up bool, degradation, frac float64) {
	if frac < 1e-9 || degradation < 0 {
		return
	}
	unit := degradation / frac
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.upCnt[v] == 0 && pc.downCnt[v] == 0 {
		pc.inits++
	}
	if up {
		pc.upSum[v] += unit
		pc.upCnt[v]++
	} else {
		pc.downSum[v] += unit
		pc.downCnt[v]++
	}
}

// score returns the product-rule pseudocost score for branching variable v
// whose LP value has fractional part frac (in (0,1)). The second return
// value reports whether both directions have observations.
func (pc *pseudocosts) score(v int, frac float64) (float64, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	const eps = 1e-6
	up, down := eps, eps
	reliable := pc.upCnt[v] > 0 && pc.downCnt[v] > 0
	if pc.upCnt[v] > 0 {
		up = pc.upSum[v] / float64(pc.upCnt[v]) * (1 - frac)
	}
	if pc.downCnt[v] > 0 {
		down = pc.downSum[v] / float64(pc.downCnt[v]) * frac
	}
	if up < eps {
		up = eps
	}
	if down < eps {
		down = eps
	}
	return up * down, reliable
}

// initialized returns the number of variables with pseudocost observations.
func (pc *pseudocosts) initialized() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.inits
}
