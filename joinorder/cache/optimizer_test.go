package cache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// countingOptimize wraps joinorder.Optimize and counts underlying calls,
// optionally per strategy.
type countingOptimize struct {
	calls      atomic.Int64
	byStrategy sync.Map // string -> *atomic.Int64
}

func (c *countingOptimize) fn(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
	c.calls.Add(1)
	strat := opts.Strategy
	if strat == "" {
		strat = "milp"
	}
	v, _ := c.byStrategy.LoadOrStore(strat, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
	return joinorder.Optimize(ctx, q, opts)
}

func (c *countingOptimize) strategyCalls(s string) int64 {
	v, ok := c.byStrategy.Load(s)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

func milpOpts() joinorder.Options {
	return joinorder.Options{Strategy: "milp", Budget: joinorder.Budget{TimeLimit: 30 * time.Second}}
}

// mustNew builds the optimizer or fails the test; every config used by
// these tests is valid by construction.
func mustNew(tb testing.TB, cfg Config) *Optimizer {
	tb.Helper()
	o, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative max entries":  {MaxEntries: -1},
		"negative ttl":          {TTL: -time.Second},
		"negative degrade":      {DegradeUnder: -time.Millisecond},
		"negative budget":       {BackgroundBudget: -time.Second},
		"degrade above budget":  {DegradeUnder: time.Minute, BackgroundBudget: time.Second},
		"degrade equals budget": {DegradeUnder: time.Second, BackgroundBudget: time.Second},
	} {
		if _, err := New(cfg); !errors.Is(err, joinorder.ErrInvalidOptions) {
			t.Errorf("%s: New err = %v, want ErrInvalidOptions", name, err)
		}
	}
	// Zero MaxEntries is defaulted by New but rejected by a direct
	// Validate of an explicit config.
	if err := (Config{}).Validate(); !errors.Is(err, joinorder.ErrInvalidOptions) {
		t.Errorf("Validate(zero) err = %v, want ErrInvalidOptions (MaxEntries)", err)
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("New(zero config) err = %v, want nil", err)
	}
	if err := (Config{MaxEntries: 64, DegradeUnder: time.Second, BackgroundBudget: time.Minute}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCacheHitOnIdenticalAndRelabeledQuery(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	q := workload.Generate(workload.Chain, 6, 3, workload.Config{})

	r1, err := o.Optimize(context.Background(), q, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != joinorder.StatusOptimal {
		t.Fatalf("seed solve not optimal: %v", r1.Status)
	}
	r2, err := o.Optimize(context.Background(), q, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 1 {
		t.Fatalf("identical query re-solved: %d underlying calls", got)
	}
	if r2.Cost != r1.Cost || r2.Status != joinorder.StatusOptimal {
		t.Fatalf("hit result differs: cost %g vs %g", r2.Cost, r1.Cost)
	}

	// A relabeled (graph-isomorphic) query must hit the same entry, and
	// the served plan must be valid — and equally cheap — in the
	// relabeled query's own table indices.
	rng := rand.New(rand.NewSource(11))
	rq := relabel(q, rng.Perm(6))
	r3, err := o.Optimize(context.Background(), rq, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 1 {
		t.Fatalf("relabeled query re-solved: %d underlying calls", got)
	}
	if err := r3.Plan.Validate(rq); err != nil {
		t.Fatalf("served plan invalid for relabeled query: %v", err)
	}
	if math.Abs(r3.Cost-r1.Cost) > 1e-9*math.Max(1, math.Abs(r1.Cost)) {
		t.Fatalf("relabeled hit cost %g != original %g", r3.Cost, r1.Cost)
	}
	if r3.Tree == nil {
		t.Fatal("hit result lost its tree")
	}

	s := o.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", s)
	}
	if s.HitRate() < 0.6 {
		t.Fatalf("hit rate %g", s.HitRate())
	}
	es := o.Entries()
	if len(es) != 1 || es[0].Hits != 2 || es[0].Tables != 6 {
		t.Fatalf("entries = %+v", es)
	}
}

func TestCacheDistinguishesOptions(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	q := workload.Generate(workload.Star, 5, 2, workload.Config{})

	opts := milpOpts()
	if _, err := o.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	opts.Precision = joinorder.PrecisionLow
	if _, err := o.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 2 {
		t.Fatalf("different precision shared an entry: %d calls", got)
	}
	// Budget.TimeLimit and Budget.Threads bound effort, not the optimum: same entry.
	opts.Budget.TimeLimit = time.Minute
	opts.Budget.Threads = 2
	if _, err := o.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 2 {
		t.Fatalf("budget-only option change missed: %d calls", got)
	}
}

// TestOptionsKeyPinned: optionsKey is embedded in every exact key written
// to the plan log, so a persisted log only replays warm while the digest
// stays byte-identical. The literals were written by the code that still
// carried the flat budget aliases.
func TestOptionsKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		opts joinorder.Options
		want string
	}{
		{joinorder.Options{},
			"milp,m0,op0,p0,tr0,cc0,gt0,mn0,cofalse,iofalse,epfalse,dp0,pc0,sf0,s0,pf[]"},
		{joinorder.Options{Strategy: "dp-leftdeep", Budget: joinorder.Budget{GapTol: 1e-3, MaxNodes: 500}},
			"dp-leftdeep,m0,op0,p0,tr0,cc0,gt0.001,mn500,cofalse,iofalse,epfalse,dp0,pc0,sf0,s0,pf[]"},
		{joinorder.Options{Strategy: "auto", Portfolio: []string{"milp", "dp-bushy", "greedy"},
			Metric: joinorder.OperatorCost, Op: joinorder.SortMergeJoin, Seed: 7},
			"auto,m1,op1,p0,tr0,cc0,gt0,mn0,cofalse,iofalse,epfalse,dp0,pc0,sf0,s7,pf[milp dp-bushy greedy]"},
	} {
		if got := optionsKey(tc.opts); got != tc.want {
			t.Errorf("optionsKey(%+v)\n got %q\nwant %q", tc.opts, got, tc.want)
		}
	}
}

// TestWarmStartOnPerturbedCardinalities runs a query and a shape-matched
// twin with drifted cardinalities through the cache per strategy: an exact
// miss both times, and only options that read a MIP start
// (joinorder.ReadsInitialPlan) canonicalize the Shape form, keep a donor
// and warm-start the second solve from the first one's plan.
func TestWarmStartOnPerturbedCardinalities(t *testing.T) {
	q := workload.Generate(workload.Cycle, 7, 5, workload.Config{})
	pq := *q
	pq.Tables = append([]joinorder.Table(nil), q.Tables...)
	for i := range pq.Tables {
		pq.Tables[i].Card *= 1.3
	}
	for _, opts := range []joinorder.Options{{}, {Strategy: "auto"}} {
		if !joinorder.ReadsInitialPlan(opts) {
			t.Errorf("%q: the default portfolio's MILP reads InitialPlan", opts.Strategy)
		}
	}
	for _, tc := range []struct {
		strategy  string
		portfolio []string
		reads     bool
	}{
		{strategy: "milp", reads: true},
		{strategy: "auto", portfolio: []string{"milp", "greedy"}, reads: true},
		{strategy: "dp-leftdeep"},
		{strategy: "greedy"},
		{strategy: "auto", portfolio: []string{"dp-bushy", "greedy"}},
	} {
		name := fmt.Sprintf("%s%v", tc.strategy, tc.portfolio)
		opts := joinorder.Options{Strategy: tc.strategy, Portfolio: tc.portfolio, Budget: joinorder.Budget{TimeLimit: 30 * time.Second}}
		if got := joinorder.ReadsInitialPlan(opts); got != tc.reads {
			t.Errorf("%s: ReadsInitialPlan = %v, want %v", name, got, tc.reads)
		}
		co := &countingOptimize{}
		o := mustNew(t, Config{Optimize: co.fn})
		if _, err := o.Optimize(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
		warmEvents := 0
		opts.OnEvent = func(ev joinorder.Event) {
			if ev.Kind == joinorder.KindWarmStart {
				warmEvents++
			}
		}
		res, err := o.Optimize(context.Background(), &pq, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := co.calls.Load(); got != 2 {
			t.Fatalf("%s: perturbed query should re-solve: %d calls", name, got)
		}
		s := o.Stats()
		want := Stats{Canonicalizations: 2}
		if tc.reads {
			want = Stats{WarmStarts: 1, Canonicalizations: 4, Donors: 1}
		}
		if s.WarmStarts != want.WarmStarts || s.Canonicalizations != want.Canonicalizations || s.Donors != want.Donors {
			t.Errorf("%s: stats %+v, want warm starts %d, canonicalizations %d, donors %d",
				name, s, want.WarmStarts, want.Canonicalizations, want.Donors)
		}
		if int64(warmEvents) != want.WarmStarts {
			t.Errorf("%s: %d warm-start events, want %d", name, warmEvents, want.WarmStarts)
		}
		if tc.strategy == "milp" && (s.WarmStartAccepted != 1 || res.MIPStart != "plan") {
			t.Errorf("%s: warm start not accepted: MIPStart=%q stats=%+v", name, res.MIPStart, s)
		}
		// Invalidation drops the donor too, and pays for the Shape form
		// only where there is one.
		o.Invalidate(&pq, opts)
		if after := o.Stats(); after.Canonicalizations-s.Canonicalizations != want.Canonicalizations/2 || after.Donors != 0 {
			t.Errorf("%s: Invalidate: %d canonicalizations, %d donors left; want %d, 0",
				name, after.Canonicalizations-s.Canonicalizations, after.Donors, want.Canonicalizations/2)
		}
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	fn := func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
		calls.Add(1)
		<-release
		return joinorder.Optimize(ctx, q, opts)
	}
	o := mustNew(t, Config{Optimize: fn})
	q := workload.Generate(workload.Chain, 5, 9, workload.Config{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*joinorder.Result, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = o.Optimize(context.Background(), q, milpOpts())
		}(i)
	}
	// Wait for the leader to enter the solve, then release everyone.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let followers join the flight
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("coalescing failed: %d underlying calls", got)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i].Cost != results[0].Cost {
			t.Fatalf("waiter %d got a different plan cost", i)
		}
	}
	s := o.Stats()
	if s.Misses != 1 || s.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced", s, waiters-1)
	}
}

func TestCoalescedWaiterHonorsOwnContext(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	fn := func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
		calls.Add(1)
		<-release
		return joinorder.Optimize(ctx, q, opts)
	}
	o := mustNew(t, Config{Optimize: fn})
	defer close(release)
	q := workload.Generate(workload.Chain, 5, 13, workload.Config{})

	go o.Optimize(context.Background(), q, milpOpts())
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := o.Optimize(ctx, q, milpOpts())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, joinorder.ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
}

// parkFirstMiss holds the first request that misses at missHook until
// release is closed; parked is closed once it is held there.
func parkFirstMiss(t *testing.T) (parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	missHook = func(string) {
		if held.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	t.Cleanup(func() { missHook = nil })
	return parked, release
}

// TestMissAfterCompletedFlightHits: a request whose lookup missed, and
// which reaches the flight group only after another request's flight has
// solved and stored the entry, is served that entry as a hit instead of
// leading a second solve.
func TestMissAfterCompletedFlightHits(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	q := workload.Generate(workload.Cycle, 6, 21, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep"}
	parked, release := parkFirstMiss(t)

	type answer struct {
		res *joinorder.Result
		err error
	}
	late := make(chan answer, 1)
	go func() {
		res, err := o.Optimize(context.Background(), relabel(q, []int{5, 4, 3, 2, 1, 0}), opts)
		late <- answer{res, err}
	}()
	<-parked
	first, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	a := <-late
	if a.err != nil {
		t.Fatal(a.err)
	}
	if got := co.calls.Load(); got != 1 {
		t.Fatalf("%d underlying solves, want 1", got)
	}
	if s := o.Stats(); s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 coalesced", s)
	}
	if a.res.Cost != first.Cost || a.res.Status != joinorder.StatusOptimal {
		t.Fatalf("late request got cost %g status %v, want the stored %g optimal", a.res.Cost, a.res.Status, first.Cost)
	}
}

// TestDegradedMissAfterCompletedRefineHits: the same for a tight-budget
// request, whose flight is a background refine: once the refine has stored
// its entry, the parked request is a hit, not a second degraded answer and
// refine.
func TestDegradedMissAfterCompletedRefineHits(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{
		Optimize:         co.fn,
		DegradeUnder:     50 * time.Millisecond,
		BackgroundBudget: 30 * time.Second,
	})
	q := workload.Generate(workload.Cycle, 6, 22, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep", Budget: joinorder.Budget{TimeLimit: 10 * time.Millisecond}}
	parked, release := parkFirstMiss(t)

	type answer struct {
		res *joinorder.Result
		err error
	}
	late := make(chan answer, 1)
	go func() {
		res, err := o.Optimize(context.Background(), q, opts)
		late <- answer{res, err}
	}()
	<-parked
	res, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "greedy" {
		t.Fatalf("degraded request served by %q, want greedy", res.Strategy)
	}
	o.Wait()
	close(release)
	a := <-late
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.Strategy != "dp-leftdeep" || a.res.Status != joinorder.StatusOptimal {
		t.Fatalf("late request got %q/%v, want the refined dp-leftdeep optimum", a.res.Strategy, a.res.Status)
	}
	o.Wait()
	if d, g := co.strategyCalls("dp-leftdeep"), co.strategyCalls("greedy"); d != 1 || g != 1 {
		t.Fatalf("underlying calls: dp-leftdeep=%d greedy=%d, want 1 each", d, g)
	}
	if s := o.Stats(); s.Degraded != 1 || s.Refines != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 degraded / 1 refine / 1 hit", s)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn, TTL: time.Minute, now: clock})
	q := workload.Generate(workload.Star, 5, 4, workload.Config{})

	if _, err := o.Optimize(context.Background(), q, milpOpts()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if _, err := o.Optimize(context.Background(), q, milpOpts()); err != nil {
		t.Fatal(err)
	}
	if co.calls.Load() != 1 {
		t.Fatal("entry expired early")
	}
	now = now.Add(2 * time.Minute)
	if _, err := o.Optimize(context.Background(), q, milpOpts()); err != nil {
		t.Fatal(err)
	}
	if co.calls.Load() != 2 {
		t.Fatal("expired entry served")
	}
	if s := o.Stats(); s.Expired != 1 {
		t.Fatalf("expired = %d, want 1", s.Expired)
	}
}

func TestLRUEviction(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn, MaxEntries: 2})
	qs := []*joinorder.Query{
		workload.Generate(workload.Chain, 5, 1, workload.Config{}),
		workload.Generate(workload.Chain, 5, 2, workload.Config{}),
		workload.Generate(workload.Chain, 5, 3, workload.Config{}),
	}
	for _, q := range qs {
		if _, err := o.Optimize(context.Background(), q, milpOpts()); err != nil {
			t.Fatal(err)
		}
	}
	if s := o.Stats(); s.Entries != 2 || s.Evicted != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 evicted", s)
	}
	// The first query was least recently used: it must re-solve.
	if _, err := o.Optimize(context.Background(), qs[0], milpOpts()); err != nil {
		t.Fatal(err)
	}
	if co.calls.Load() != 4 {
		t.Fatalf("evicted entry served stale: %d calls", co.calls.Load())
	}
}

func TestDegradedServing(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{
		Optimize:         co.fn,
		DegradeUnder:     50 * time.Millisecond,
		BackgroundBudget: 30 * time.Second,
	})
	q := workload.Generate(workload.Cycle, 6, 8, workload.Config{})

	opts := milpOpts()
	opts.Budget.TimeLimit = 10 * time.Millisecond
	res, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "greedy" {
		t.Fatalf("degraded request served by %q, want greedy", res.Strategy)
	}
	o.Wait()
	s := o.Stats()
	if s.Degraded != 1 || s.Refines != 1 {
		t.Fatalf("stats = %+v, want 1 degraded / 1 refine", s)
	}

	// The background refine populated the cache: a relaxed-deadline
	// repeat is a hit with the full MILP answer.
	res2, err := o.Optimize(context.Background(), q, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Strategy != "milp" || res2.Status != joinorder.StatusOptimal {
		t.Fatalf("post-refine request got %q/%v, want cached milp optimal", res2.Strategy, res2.Status)
	}
	if o.Stats().Hits != 1 {
		t.Fatalf("post-refine request missed: %+v", o.Stats())
	}
	if co.strategyCalls("milp") != 1 || co.strategyCalls("greedy") != 1 {
		t.Fatalf("underlying calls: milp=%d greedy=%d", co.strategyCalls("milp"), co.strategyCalls("greedy"))
	}
}

func TestUncacheablePassesThrough(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	q := workload.Generate(workload.Chain, 5, 6, workload.Config{})
	q.Correlated = []joinorder.CorrelatedGroup{{Predicates: []int{0, 1}, CorrectionSel: 0.5}}

	for i := 0; i < 2; i++ {
		if _, err := o.Optimize(context.Background(), q, milpOpts()); err != nil {
			t.Fatal(err)
		}
	}
	if co.calls.Load() != 2 {
		t.Fatal("uncacheable query was cached")
	}
	if s := o.Stats(); s.Uncacheable != 2 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEventStreamInterleavesCacheAndSolverEvents(t *testing.T) {
	o := mustNew(t, Config{})
	q := workload.Generate(workload.Star, 6, 7, workload.Config{})

	var events []joinorder.Event
	opts := milpOpts()
	opts.OnEvent = func(ev joinorder.Event) { events = append(events, ev) }

	if _, err := o.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("miss produced %d events, want cache miss + solver stream", len(events))
	}
	if events[0].Kind != joinorder.KindCacheMiss {
		t.Fatalf("first event %v, want cache_miss", events[0].Kind)
	}
	sawSolver := false
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: merged stream not monotonic", i, ev.Seq)
		}
		if ev.Kind == joinorder.KindIncumbent || ev.Kind == joinorder.KindLPRelaxation {
			sawSolver = true
		}
	}
	if !sawSolver {
		t.Fatal("solver events did not reach the caller through the cache")
	}

	events = nil
	if _, err := o.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != joinorder.KindCacheHit {
		t.Fatalf("hit produced %v, want exactly one cache_hit", events)
	}
	if !events[0].HasIncumbent || math.IsInf(events[0].Bound, -1) {
		t.Fatalf("cache_hit event lacks anytime state: %+v", events[0])
	}

	// Incumbent events keep reaching the caller through the cache
	// rewiring on a fresh (miss-path) query.
	var incumbents int
	p := milpOpts()
	p.OnEvent = func(ev joinorder.Event) {
		if ev.Kind == joinorder.KindIncumbent {
			incumbents++
		}
	}
	pq := workload.Generate(workload.Star, 6, 17, workload.Config{})
	if _, err := o.Optimize(context.Background(), pq, p); err != nil {
		t.Fatal(err)
	}
	if incumbents == 0 {
		t.Fatal("incumbent events starved by the cache rewiring")
	}
}

func TestCachedErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	fn := func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return joinorder.Optimize(ctx, q, opts)
	}
	o := mustNew(t, Config{Optimize: fn})
	q := workload.Generate(workload.Chain, 5, 21, workload.Config{})

	if _, err := o.Optimize(context.Background(), q, milpOpts()); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	res, err := o.Optimize(context.Background(), q, milpOpts())
	if err != nil || res == nil {
		t.Fatalf("error was cached: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

// TestAutoResultCachedWithWinner: portfolio results are cacheable like any
// other strategy, the Winner provenance survives the cache round trip, and
// the portfolio membership is part of the entry key — two auto requests
// with different member lists never share an entry.
func TestAutoResultCachedWithWinner(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	q := workload.Generate(workload.Star, 6, 4, workload.Config{})

	// milp + greedy: the proven winner carries a left-deep Plan, which is
	// what the translation cache can store. (A dp-bushy winner whose optimum
	// is genuinely bushy — star optima use cross-product subtrees — has
	// Tree but no Plan and passes through uncached.)
	opts := joinorder.Options{
		Strategy:  "auto",
		Portfolio: []string{"milp", "greedy"},
		Budget:    joinorder.Budget{TimeLimit: 30 * time.Second, Threads: 1},
	}
	r1, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Winner == "" || r1.Strategy != "auto" {
		t.Fatalf("seed solve: strategy=%q winner=%q", r1.Strategy, r1.Winner)
	}
	r2, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 1 {
		t.Fatalf("identical auto request re-solved: %d underlying calls", got)
	}
	if r2.Winner != r1.Winner || r2.Cost != r1.Cost || r2.Strategy != "auto" {
		t.Fatalf("cache hit lost provenance: winner %q vs %q", r2.Winner, r1.Winner)
	}

	// A different membership is a different answer space: distinct entry.
	opts.Portfolio = []string{"greedy"}
	if _, err := o.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 2 {
		t.Fatalf("different portfolio shared an entry: %d calls", got)
	}
}

// TestDegradedAutoRefinesWithPortfolio: a degraded auto request is served
// by the fallback heuristic, but the background refine re-runs the full
// portfolio race — the next relaxed-deadline request hits the cached auto
// result complete with its winner.
func TestDegradedAutoRefinesWithPortfolio(t *testing.T) {
	co := &countingOptimize{}
	o := mustNew(t, Config{
		Optimize:         co.fn,
		DegradeUnder:     50 * time.Millisecond,
		BackgroundBudget: 30 * time.Second,
	})
	q := workload.Generate(workload.Star, 6, 9, workload.Config{})

	opts := joinorder.Options{
		Strategy:  "auto",
		Portfolio: []string{"milp", "greedy"},
		Budget:    joinorder.Budget{TimeLimit: 10 * time.Millisecond, Threads: 1},
	}
	res, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "greedy" || res.Winner != "" {
		t.Fatalf("degraded request served by %q (winner %q), want plain greedy", res.Strategy, res.Winner)
	}
	o.Wait()

	opts.Budget.TimeLimit = 30 * time.Second
	res2, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Strategy != "auto" || res2.Winner == "" || res2.Status != joinorder.StatusOptimal {
		t.Fatalf("post-refine request got %q/%v winner=%q, want cached auto optimal with a winner",
			res2.Strategy, res2.Status, res2.Winner)
	}
	if co.strategyCalls("auto") != 1 || co.strategyCalls("greedy") != 1 {
		t.Fatalf("underlying calls: auto=%d greedy=%d, want 1/1",
			co.strategyCalls("auto"), co.strategyCalls("greedy"))
	}
}
