package bb

import (
	"container/heap"
	"context"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
	"milpjoin/internal/simplex"
)

// Solve runs branch and bound on a compiled model. The returned solution
// (when HasIncumbent) is in computational-form coordinates: the first
// NumStructural entries are model variables.
//
// Cancelling ctx stops the search promptly: the context's end raises the
// stop flag that the worker loops observe between nodes and the simplex
// iteration loops poll, so the call returns with StatusCanceled
// (context.Canceled) or StatusTimeLimit (context.DeadlineExceeded) carrying
// the best incumbent and proven bound found so far. Params.TimeLimit is a
// context deadline too: whichever comes first ends the search with
// StatusTimeLimit.
func Solve(ctx context.Context, comp *milp.Computational, params Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	params = params.withDefaults()
	if params.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, params.TimeLimit)
		defer cancel()
	}
	a := arenas.Get().(*arena)
	if a.inFlight == nil {
		a.inFlight = make(map[int]float64)
	}
	s := &searcher{
		comp:      comp,
		params:    params,
		ar:        a,
		rootL:     a.rootL[:0],
		rootU:     a.rootU[:0],
		intVars:   a.intVars[:0],
		open:      a.open[:0],
		inFlight:  a.inFlight,
		freeBases: append(a.free[:0], a.bases...),
		start:     time.Now(),
		incObj:    math.Inf(1),
		lastBound: math.Inf(-1),
	}
	defer s.handBack()
	s.cond = sync.NewCond(&s.mu)
	s.nodesPerWorker = make([]int, params.Threads)
	root := s.newNode()
	root.bound = math.Inf(-1)
	heap.Push(&s.open, root)
	if err := ctx.Err(); err != nil {
		// Already ended: report without exploring a single node, so the
		// bound is the unsolved root's −Inf.
		s.setStop(ContextStatus(err))
		return s.finish(), nil
	}
	s.rootL = append(s.rootL, comp.Problem.L...)
	s.rootU = append(s.rootU, comp.Problem.U...)
	for j := 0; j < comp.NumStructural; j++ {
		if comp.Integral[j] {
			s.intVars = append(s.intVars, j)
		}
	}
	a.pc.reset(comp.Problem.NumCols())
	s.pc = &a.pc
	for len(a.workers) < params.Threads {
		a.workers = append(a.workers, &workerState{ws: simplex.NewWorkspace()})
	}
	s.workers = a.workers[:params.Threads]
	for _, st := range s.workers {
		st.prob.A = comp.Problem.A
		st.prob.B = comp.Problem.B
		st.prob.C = comp.Problem.C
	}

	// The MIP start is completed in worker 0's scratch before the
	// workers start.
	if len(params.InitialIncumbent) == comp.NumStructural {
		s.completeAndOffer(s.workers[0], params.InitialIncumbent, nil)
	}

	// The context's end becomes the shared stop flag, so that workers
	// blocked on the condition variable or busy in a node LP notice
	// promptly. A search already done keeps its status: a deadline that
	// fires after the last node does not make a finished search a time
	// limit.
	defer context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.done {
			s.setStop(ContextStatus(ctx.Err()))
			s.cond.Broadcast()
		}
	})()

	// pprof labels attribute worker CPU time to the search phase, so a
	// CPU profile splits solver time by phase and worker.
	var wg sync.WaitGroup
	for w := 0; w < params.Threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pprof.Do(ctx, pprof.Labels(
				"milp_phase", "bb_search",
				"milp_worker", strconv.Itoa(id),
			), func(context.Context) {
				s.worker(id)
			})
		}(w)
	}
	wg.Wait()

	return s.finish(), nil
}

// ContextStatus maps a context error to the matching termination status:
// an expired deadline is a time limit, anything else a cancellation.
func ContextStatus(err error) Status {
	if err == context.DeadlineExceeded {
		return StatusTimeLimit
	}
	return StatusCanceled
}

type searcher struct {
	comp   *milp.Computational
	params Params
	ar     *arena // the storage this search draws on (see arena)

	rootL, rootU []float64
	intVars      []int // integral structural variable indices

	mu       sync.Mutex
	cond     *sync.Cond
	open     nodeHeap
	inFlight map[int]float64 // workerID → bound of node being processed
	// freeBases holds the warm bases both of whose nodes are done — solved,
	// or pruned before their LP — for the next branching to copy into. A
	// basis is two arrays over all columns and rows, and without the list
	// one per branched node is a third of the bytes a search allocates. A
	// search starts with every basis its arena owns on the list.
	freeBases []*pairBasis

	incumbent    []float64
	incObj       float64
	hasInc       bool
	lastBound    float64 // bound at the last improvement notification
	nodes        int
	simplexIters int
	failures     int
	done         bool
	stopStatus   Status
	stopSet      bool

	// Observability counters (guarded by mu).
	nodesPerWorker []int
	peakOpen       int
	refactors      int
	rootLPIters    int
	rootLPTime     time.Duration
	lpTime         time.Duration
	incumbents     int
	boundImps      int
	injInstalled   int // injected incumbents installed (guarded by mu)

	stopFlag atomic.Bool
	pc       *pseudocosts
	pricing  simplex.PricingStats // aggregated under mu

	// Per-worker reusable state: simplex workspaces, the hoisted node LP
	// problem, and node scratch buffers. Indexed by worker id; each entry
	// is touched only by its worker goroutine.
	workers []*workerState

	start time.Time
}

// arena is the storage of a search that outlives it. Solve takes one from
// arenas and hands it back holding nothing of the search (see handBack), so
// a process that solves many models (one per partition, one per request)
// grows its search memory once. The pool lets the collector free arenas
// that sit idle, so no cap is needed.
type arena struct {
	workers      []*workerState // a search uses the first Params.Threads
	pc           pseudocosts
	rootL, rootU []float64
	intVars      []int
	open         nodeHeap
	inFlight     map[int]float64
	// nodes holds every node the arena owns; the first used of them are
	// the running search's, and the rest are zero. A node is not reused
	// within a search, as its descendants' bound changes chain through it.
	nodes []*node
	used  int
	// bases holds every warm basis the arena owns, and free the storage
	// of the search's free list of them.
	bases, free []*pairBasis
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// workerState is the per-worker arena for the node-LP hot path. The shared
// constraint matrix, rhs, and objective are installed in prob once; only
// the bound slices change per node, so a node solve performs no problem
// construction and, once warm, no heap allocation.
type workerState struct {
	ws   *simplex.Workspace
	prob simplex.Problem // A/B/C fixed; L/U point at l/u

	l, u    []float64 // node bounds, copied from the root bounds
	frac    []int     // fractional-variable scratch for the node
	compX   []float64 // completion scratch: full point
	compAct []float64 // completion scratch: row activities
}

// handBack returns the search's arena to arenas, keeping the storage the
// search grew and holding nothing of the search: the workspaces forget
// their problem and factorizations, the worker problems their matrix and
// bounds, and the nodes their links.
func (s *searcher) handBack() {
	a := s.ar
	for _, st := range s.workers {
		st.ws.Reset()
		st.prob = simplex.Problem{}
	}
	for _, nd := range a.nodes[:a.used] {
		*nd = node{}
	}
	a.used = 0
	clear(s.open)
	clear(s.inFlight)
	a.rootL, a.rootU, a.intVars = s.rootL[:0], s.rootU[:0], s.intVars[:0]
	a.open, a.free = s.open[:0], s.freeBases[:0]
	arenas.Put(a)
}

// newNode returns a zero node from the arena. Caller holds s.mu, or no
// worker runs.
func (s *searcher) newNode() *node {
	a := s.ar
	if a.used == len(a.nodes) {
		a.nodes = append(a.nodes, new(node))
	}
	a.used++
	return a.nodes[a.used-1]
}

// worker is the node-processing loop run by each thread.
func (s *searcher) worker(id int) {
	s.mu.Lock()
	s.emitLocked(obs.Event{Kind: obs.KindWorkerStart, Worker: id})
	s.mu.Unlock()
	for {
		s.drainInjected(id)
		s.mu.Lock()
		for !s.done && len(s.open) == 0 && len(s.inFlight) > 0 {
			s.cond.Wait()
		}
		if s.done || len(s.open) == 0 {
			// Tree exhausted (or externally stopped).
			s.done = true
			s.cond.Broadcast()
			s.emitLocked(obs.Event{Kind: obs.KindWorkerStop, Worker: id})
			s.mu.Unlock()
			return
		}
		nd := heap.Pop(&s.open).(*node)
		// Late pruning against an incumbent found since the push.
		if s.hasInc && nd.bound >= s.incObj-absGapTol {
			s.release(nd)
			s.mu.Unlock()
			continue
		}
		s.inFlight[id] = nd.bound
		s.nodes++
		s.nodesPerWorker[id]++
		if s.params.MaxNodes > 0 && s.nodes >= s.params.MaxNodes {
			s.setStop(StatusNodeLimit)
		}
		if s.nodes%eventNodeInterval == 0 {
			s.emitLocked(obs.Event{Kind: obs.KindNodeBatch, Worker: id})
		}
		s.mu.Unlock()

		down, up, repush := s.processNode(nd, id)

		s.mu.Lock()
		delete(s.inFlight, id)
		if repush != nil {
			heap.Push(&s.open, repush)
		} else {
			s.release(nd)
		}
		if down != nil {
			for _, c := range [...]*node{down, up} {
				if !(s.hasInc && c.bound >= s.incObj-absGapTol) {
					heap.Push(&s.open, c)
				} else {
					s.release(c)
				}
			}
		}
		if len(s.open) > s.peakOpen {
			s.peakOpen = len(s.open)
		}
		s.checkTermination()
		// Count and surface bound improvements (the incumbent path
		// notifies separately in offerIncumbent). Unconditional: the
		// Stats counter must not depend on somebody listening.
		if b := s.globalBoundLocked(); b-s.lastBound > 1e-3*(1+math.Abs(b)) {
			s.notifyLocked(obs.KindBound)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// release takes from a node the warm basis it is done with — its LP has been
// solved, it was pruned without one, or it will retry cold — and frees the
// basis for reuse once the sibling is done too. Nodes still open when the
// search ends keep theirs. Caller holds s.mu.
func (s *searcher) release(nd *node) {
	b := nd.basis
	if b == nil {
		return
	}
	nd.basis = nil
	if b.users--; b.users == 0 {
		s.freeBases = append(s.freeBases, b)
	}
}

// childBasis copies the final basis of a node's LP for its two children,
// into freed storage when there is some, else into a new basis of the
// arena.
func (s *searcher) childBasis(from *simplex.Basis) *pairBasis {
	var b *pairBasis
	s.mu.Lock()
	if n := len(s.freeBases); n > 0 {
		b, s.freeBases = s.freeBases[n-1], s.freeBases[:n-1]
	} else {
		b = new(pairBasis)
		s.ar.bases = append(s.ar.bases, b)
	}
	s.mu.Unlock()
	b.Status = append(b.Status[:0], from.Status...)
	b.Head = append(b.Head[:0], from.Head...)
	b.users = 2
	return b
}

// drainInjected installs the candidates Params.Incumbents hands out: each
// model-space assignment is scaled into the computational space, completed
// with exact logical values, revalidated against the root bounds, and
// installed only when it improves the incumbent. Called at node boundaries
// by every worker, outside the search lock.
func (s *searcher) drainInjected(wid int) {
	if s.params.Incumbents == nil {
		return
	}
	for xs := s.params.Incumbents(); xs != nil; xs = s.params.Incumbents() {
		if len(xs) != s.comp.NumStructural {
			continue
		}
		if s.completeAndOffer(s.workers[wid], xs, s.comp.ColScale) {
			s.mu.Lock()
			s.injInstalled++
			s.emitLocked(obs.Event{Kind: obs.KindInjected, Worker: wid})
			s.mu.Unlock()
		}
	}
}

// emitLocked sends one event stamped with the current anytime state of the
// search (incumbent, bound, gap, node counts). Caller holds s.mu; callers
// fill Kind, Worker (-1 when not worker-bound), and payload fields.
func (s *searcher) emitLocked(ev obs.Event) {
	if s.params.Events == nil {
		return
	}
	bound := s.globalBoundLocked()
	ev.Incumbent = s.incObj
	ev.Bound = bound
	ev.Gap = obs.RelGap(s.incObj, bound)
	ev.HasIncumbent = s.hasInc
	ev.Nodes = s.nodes
	ev.OpenNodes = len(s.open) + len(s.inFlight)
	s.params.Events.Emit(ev)
}

// setStop flags early termination with the given status (first wins).
// Caller holds s.mu.
func (s *searcher) setStop(st Status) {
	if !s.stopSet {
		s.stopSet = true
		s.stopStatus = st
	}
	s.stopFlag.Store(true)
	s.done = true
}

// checkTermination evaluates the gap limit. Caller holds s.mu.
func (s *searcher) checkTermination() {
	if s.done {
		return
	}
	if s.hasInc {
		bound := s.globalBoundLocked()
		if s.incObj-bound <= absGapTol || obs.RelGap(s.incObj, bound) <= s.params.GapTol {
			s.done = true // proved optimal within tolerance
		}
	}
}

// globalBoundLocked returns the best proven lower bound. Caller holds s.mu.
func (s *searcher) globalBoundLocked() float64 {
	bound := math.Inf(1)
	if len(s.open) > 0 {
		bound = s.open[0].bound
	}
	for _, b := range s.inFlight {
		if b < bound {
			bound = b
		}
	}
	if math.IsInf(bound, 1) {
		// No open work: the incumbent (if any) is proven optimal.
		if s.hasInc {
			return s.incObj
		}
		return math.Inf(1)
	}
	if s.hasInc && bound > s.incObj {
		return s.incObj
	}
	return bound
}

// processNode solves one node LP and returns the children to enqueue (both
// nil when it does not branch), plus an optional node to re-push (used
// when a solve was aborted mid-flight).
func (s *searcher) processNode(nd *node, wid int) (down, up, repush *node) {
	if s.stopFlag.Load() {
		return nil, nil, nd
	}
	w := s.workers[wid]

	w.l = append(w.l[:0], s.rootL...)
	w.u = append(w.u[:0], s.rootU...)
	nd.applyBounds(w.l, w.u)

	lpStart := time.Now()
	lp, iters, st := s.solveLP(w, nd.basis.warm())
	lpDur := time.Since(lpStart)
	s.mu.Lock()
	s.simplexIters += iters
	s.lpTime += lpDur
	if lp != nil {
		s.refactors += lp.Refactors
		s.pricing.Add(lp.Pricing)
	}
	if nd.parent == nil && st == simplex.StatusOptimal {
		s.rootLPIters += iters
		s.rootLPTime += lpDur
		s.emitLocked(obs.Event{
			Kind:      obs.KindLPRelaxation,
			Worker:    wid,
			Objective: lp.Obj,
			Iters:     iters,
		})
	}
	s.mu.Unlock()

	switch st {
	case simplex.StatusAborted:
		return nil, nil, nd
	case simplex.StatusInfeasible:
		return nil, nil, nil
	case simplex.StatusUnbounded:
		if nd.parent == nil {
			s.mu.Lock()
			s.setStop(StatusUnbounded)
			s.mu.Unlock()
		}
		return nil, nil, nil
	case simplex.StatusIterLimit:
		// Retry once from a cold basis; afterwards give up on the node
		// but record that the tree is no longer exhaustively explored.
		if nd.basis != nil {
			s.mu.Lock()
			s.release(nd)
			s.mu.Unlock()
			return nil, nil, nd
		}
		s.mu.Lock()
		s.failures++
		s.mu.Unlock()
		return nil, nil, nil
	}

	bound := math.Max(nd.bound, lp.Obj)

	// Pseudocost bookkeeping for the branch that created this node.
	if nd.parent != nil && nd.frac > 0 {
		s.pc.record(nd.change.varIdx, nd.change.isLower, lp.Obj-nd.parentBound, nd.frac)
	}

	s.mu.Lock()
	cutoff := math.Inf(1)
	if s.hasInc {
		cutoff = s.incObj - absGapTol
	}
	s.mu.Unlock()
	if bound >= cutoff {
		return nil, nil, nil
	}

	// Root-only reduced-cost fixing: with an incumbent (e.g. a MIP
	// start) and root duals, a nonbasic integer variable whose reduced
	// cost alone would push the objective past the incumbent can be
	// fixed at its bound for the entire tree.
	if nd.parent == nil && lp.Y != nil {
		s.reducedCostFixing(lp)
	}

	w.frac = s.fractionalVars(lp.X, w.frac)
	frac := w.frac
	if len(frac) == 0 {
		s.offerIncumbent(lp.X)
		return nil, nil, nil
	}

	// The basis is copied once for both children, which outlive this
	// node arbitrarily on the heap.
	childBasis := s.childBasis(lp.Basis)
	bv, bval := s.selectBranchVar(lp.X, frac)
	f := bval - math.Floor(bval)

	s.mu.Lock()
	down, up = s.newNode(), s.newNode()
	s.mu.Unlock()
	*down = node{
		parent:      nd,
		change:      boundChange{varIdx: bv, isLower: false, value: math.Floor(bval)},
		depth:       nd.depth + 1,
		bound:       bound,
		basis:       childBasis,
		frac:        f,
		parentBound: bound,
	}
	*up = node{
		parent:      nd,
		change:      boundChange{varIdx: bv, isLower: true, value: math.Ceil(bval)},
		depth:       nd.depth + 1,
		bound:       bound,
		basis:       childBasis,
		frac:        1 - f,
		parentBound: bound,
	}
	return down, up, nil
}

// reducedCostFixing tightens root bounds of integer variables using the
// root LP duals and the current incumbent: if moving variable j off its
// bound by one unit already costs more than the incumbent allows, the
// variable is fixed. Safe for the whole tree because every node's bounds
// are tightenings of the root's. Concurrency: this runs only while the
// root node is being processed, when it is the sole node in flight and no
// other worker can be copying the root bounds.
func (s *searcher) reducedCostFixing(lp *simplex.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasInc {
		return
	}
	slack := s.incObj - absGapTol - lp.Obj
	if slack < 0 || math.IsInf(slack, 1) {
		return
	}
	for _, j := range s.intVars {
		if s.rootU[j]-s.rootL[j] < 1 {
			continue
		}
		d := s.comp.Problem.C[j] - s.comp.Problem.A.ColDot(j, lp.Y)
		v := lp.X[j]
		switch {
		case d > slack && math.Abs(v-s.rootL[j]) < 1e-9:
			// Raising x_j by ≥ 1 exceeds the incumbent: pin to lower.
			s.rootU[j] = s.rootL[j]
		case -d > slack && math.Abs(v-s.rootU[j]) < 1e-9:
			s.rootL[j] = s.rootU[j]
		}
	}
}

// solveLP runs the simplex method on the worker's hoisted problem (shared
// matrix, rhs, and objective installed once) with the node bounds in w.l and
// w.u. The result aliases the worker's workspace and is only valid until the
// next solveLP with the same worker.
func (s *searcher) solveLP(w *workerState, warm *simplex.Basis) (*simplex.Result, int, simplex.Status) {
	w.prob.L, w.prob.U = w.l, w.u
	res, err := simplex.Solve(&w.prob, warm, simplex.Options{
		Stop:       &s.stopFlag,
		PreferDual: s.params.UseDualSimplex && warm != nil,
		Workspace:  w.ws,
	})
	if err != nil {
		// Numerical failure: surface as an iteration-limit-style retry.
		return nil, 0, simplex.StatusIterLimit
	}
	return res, res.Iters, res.Status
}

// fractionalVars returns the integral variables whose LP values are
// fractional beyond the integrality tolerance, appending into buf.
func (s *searcher) fractionalVars(x []float64, buf []int) []int {
	out := buf[:0]
	for _, j := range s.intVars {
		if fracPart(x[j]) > intTol {
			out = append(out, j)
		}
	}
	return out
}

func fracPart(v float64) float64 {
	f := v - math.Floor(v)
	return math.Min(f, 1-f)
}

// selectBranchVar picks the branching variable among the fractional ones:
// the best pseudocost score, where a variable not yet observed in both
// directions scores by its fractionality scaled below any reliable score.
func (s *searcher) selectBranchVar(x []float64, frac []int) (int, float64) {
	best := frac[0]
	bestScore := math.Inf(-1)
	for _, j := range frac {
		f := x[j] - math.Floor(x[j])
		score, reliable := s.pc.score(j, f)
		if !reliable {
			score = math.Min(f, 1-f) * 1e-3
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best, x[best]
}

// offerIncumbent installs a candidate integer solution if it improves the
// incumbent. Candidates are trusted: they come from LP solves whose
// integral variables are integer within tolerance, or from completeAndOffer
// after revalidation, and are stored as-is (rounding them without
// recomputing the logical columns could violate rows).
func (s *searcher) offerIncumbent(x []float64) bool {
	var obj float64
	for j, c := range s.comp.Problem.C {
		obj += c * x[j]
	}
	improved := false
	s.mu.Lock()
	if obj < s.incObj-1e-12 {
		s.incObj = obj
		// Copy only on install: candidates that lose the comparison (the
		// common case once a good incumbent exists) cost no allocation.
		s.incumbent = append(s.incumbent[:0], x...)
		s.hasInc = true
		improved = true
		s.notifyLocked(obs.KindIncumbent)
		s.checkTermination()
	}
	s.mu.Unlock()
	return improved
}

// notifyLocked records an incumbent or bound improvement: it updates the
// improvement counters and emits the matching event. Caller holds s.mu.
func (s *searcher) notifyLocked(kind obs.EventKind) {
	switch kind {
	case obs.KindIncumbent:
		s.incumbents++
	case obs.KindBound:
		s.boundImps++
	}
	s.lastBound = s.globalBoundLocked()
	s.emitLocked(obs.Event{Kind: kind, Worker: -1})
}

// checkFeasibleComputational verifies bounds and row activities of a full
// computational-form point against the ROOT bounds. ax is scratch for the
// row activities (one entry per row, clobbered). Both tests fail on NaN.
func (s *searcher) checkFeasibleComputational(x, ax []float64) bool {
	const tol = 1e-6
	for j, v := range x {
		if !(v >= s.rootL[j]-tol && v <= s.rootU[j]+tol) {
			return false
		}
	}
	s.comp.Problem.A.MulVecTo(ax, x)
	for i, b := range s.comp.Problem.B {
		if !(math.Abs(ax[i]-b) <= tol*(1+math.Abs(b))) {
			return false
		}
	}
	return true
}

// completeAndOffer extends a structural assignment with exact logical
// values (s_i = b_i − (A_s·x_s)_i: the logical columns are the identity
// block), revalidates the completed point and offers it as an incumbent. It
// reports whether the point improved the incumbent. A non-nil scale divides
// the assignment by the column scales first, taking a model-space point into
// the computational space. The point is built in w's completion scratch.
func (s *searcher) completeAndOffer(w *workerState, xs, scale []float64) bool {
	ns := s.comp.NumStructural
	w.compX = growZeroed(w.compX, s.comp.Problem.NumCols())
	w.compAct = growZeroed(w.compAct, s.comp.Problem.NumRows())
	x, act := w.compX, w.compAct
	copy(x, xs[:ns])
	for j := range scale {
		x[j] /= scale[j]
	}
	a := s.comp.Problem.A
	for j := 0; j < ns; j++ {
		if x[j] == 0 {
			continue
		}
		rows, vals := a.Col(j)
		for p, i := range rows {
			act[i] += vals[p] * x[j]
		}
	}
	for i := range act {
		x[ns+i] = s.comp.Problem.B[i] - act[i]
	}
	// act has served its purpose; the check reuses it for A·x.
	if !s.checkFeasibleComputational(x, act) {
		return false
	}
	return s.offerIncumbent(x)
}

// growZeroed returns s resized to n with every element zeroed.
func growZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// finish assembles the result after all workers exit.
func (s *searcher) finish() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()

	res := &Result{
		HasIncumbent: s.hasInc,
		Obj:          s.incObj,
		Nodes:        s.nodes,
		SimplexIters: s.simplexIters,
		Elapsed:      time.Since(s.start),
		Stats: obs.Stats{
			SearchTime:         time.Since(s.start),
			LPTime:             s.lpTime,
			RootLPTime:         s.rootLPTime,
			Nodes:              s.nodes,
			PeakOpenNodes:      s.peakOpen,
			Workers:            s.params.Threads,
			NodesPerWorker:     append([]int(nil), s.nodesPerWorker...),
			SimplexIters:       s.simplexIters,
			RootLPIters:        s.rootLPIters,
			Refactorizations:   s.refactors,
			DevexResets:        s.pricing.DevexResets,
			PricingScannedCols: s.pricing.ScannedCols,
			PricingTotalCols:   s.pricing.TotalCols,
			Incumbents:         s.incumbents,
			BoundImprovements:  s.boundImps,
			InjectedIncumbents: s.injInstalled,
		},
	}
	if s.pc != nil {
		res.Stats.PseudocostInits = s.pc.initialized()
	}
	if s.hasInc {
		res.X = s.incumbent
	}
	bound := s.globalBoundLocked()
	res.Bound = bound
	res.Gap = obs.RelGap(s.incObj, bound)

	switch {
	case s.stopSet && s.stopStatus == StatusUnbounded:
		res.Status = StatusUnbounded
	case s.stopSet && (s.stopStatus == StatusTimeLimit || s.stopStatus == StatusNodeLimit || s.stopStatus == StatusCanceled):
		res.Status = s.stopStatus
	case !s.hasInc:
		if s.failures > 0 {
			res.Status = StatusNoProgress
		} else {
			res.Status = StatusInfeasible
			res.Bound = math.Inf(1)
		}
	case s.failures > 0:
		res.Status = StatusNoProgress
	default:
		res.Status = StatusOptimal
	}
	return res
}
