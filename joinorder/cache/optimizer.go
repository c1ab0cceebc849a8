package cache

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"milpjoin/internal/obs"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache/persist"
)

// OptimizeFunc is the underlying optimizer the cache fronts; it matches
// joinorder.Optimize. Tests inject counting or failing implementations.
type OptimizeFunc func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error)

// Config configures an Optimizer. The zero value is usable: 1024 entries,
// no TTL, degraded serving off.
type Config struct {
	// MaxEntries bounds the exact cache (default 1024). The warm-start
	// donor index is bounded separately at the same size.
	MaxEntries int
	// MaxBytes additionally bounds the exact cache's approximate resident
	// bytes (0: entry-count bound only). It is what keeps a persistent-log
	// replay larger than the configured LRU from blowing memory: replay
	// evicts in log order as it overflows, counted in Stats.ReplayEvicted.
	MaxBytes int64
	// TTL expires entries this long after insertion (0: never). Expiry
	// is checked on lookup; an expired entry is treated as a miss and
	// removed, so stale plans are never served.
	TTL time.Duration
	// DegradeUnder enables graceful degradation: when a request's
	// effective time budget (Budget.TimeLimit composed with the context
	// deadline) is at most this, the cache serves a greedy plan
	// immediately and refines the real answer in the background,
	// publishing it to the cache for the next request (0: disabled).
	DegradeUnder time.Duration
	// BackgroundBudget is the time limit of a background refine solve
	// (default 30s).
	BackgroundBudget time.Duration
	// Optimize is the underlying optimizer (default joinorder.Optimize).
	Optimize OptimizeFunc

	// Persist attaches a disk-backed plan log (see the persist
	// subpackage): stored entries and warm-start donors are appended to
	// it, invalidations become tombstones, and New replays the surviving
	// records into the in-memory stores so a restarted process serves
	// previously-seen fingerprints without re-solving. The caller owns
	// the log's lifecycle (Open before New, Close after the optimizer is
	// done).
	Persist *persist.Log
	// OnStore, when set, observes every freshly stored entry — exact
	// results and warm-start donors — as (kind, key, serialized value).
	// The cluster layer uses it to replicate hot entries to peer shards.
	// Entries loaded by replay or ImportRecord are not announced, so
	// replication cannot amplify. The hook runs synchronously on the
	// solve path; keep it fast (enqueue, don't block).
	OnStore func(kind, key string, val []byte)

	// now overrides the clock in tests.
	now func() time.Time
}

// Optimizer is a concurrent plan cache in front of joinorder.Optimize.
//
// Lookups key on the canonical query fingerprint (see Canonicalize), so a
// relabeled — graph-isomorphic — query hits the entry of the original.
// Only proven-optimal results enter the exact cache; every plan solved under
// options that read a MIP start (joinorder.ReadsInitialPlan) additionally
// feeds a shape-level donor index that warm-starts solves of structurally
// identical queries whose cardinalities drifted. Identical concurrent
// requests coalesce into one solve. All methods are safe for concurrent use.
type Optimizer struct {
	cfg     Config
	exact   *store[string, *canonicalResult]
	donors  *store[string, *donor]
	flights flightGroup
	ctr     counters
	bg      sync.WaitGroup
}

// canonicalResult is a cached result whose plan is stored in canonical
// label space; serve translates it into any requesting query's labels.
type canonicalResult struct {
	res *joinorder.Result // Plan.Order in canonical labels; Tree nil
}

// donor is a shape-level warm-start candidate: a plan in shape-canonical
// label space from the most recent solve of this query shape.
type donor struct {
	order []int
	ops   []joinorder.Operator
}

// WithDefaults returns the config with every zero field replaced by its
// documented default. New applies it before validating, so the zero Config
// stays usable.
func (c Config) WithDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = 1024
	}
	if c.BackgroundBudget == 0 {
		c.BackgroundBudget = 30 * time.Second
	}
	if c.Optimize == nil {
		c.Optimize = joinorder.Optimize
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Validate checks the caller-supplied config values, mirroring
// joinorder.Options.Validate: it is called by New (after WithDefaults), so
// no panic or silent misbehaviour is reachable from bad configuration.
// Callers validating an explicit config directly should note that a zero
// MaxEntries is rejected here but defaulted by New.
func (c Config) Validate() error {
	if c.MaxEntries <= 0 {
		return fmt.Errorf("%w: cache MaxEntries %d must be positive", joinorder.ErrInvalidOptions, c.MaxEntries)
	}
	if c.MaxBytes < 0 {
		return fmt.Errorf("%w: negative cache MaxBytes %d", joinorder.ErrInvalidOptions, c.MaxBytes)
	}
	if c.TTL < 0 {
		return fmt.Errorf("%w: negative cache TTL %v", joinorder.ErrInvalidOptions, c.TTL)
	}
	if c.DegradeUnder < 0 {
		return fmt.Errorf("%w: negative DegradeUnder %v", joinorder.ErrInvalidOptions, c.DegradeUnder)
	}
	if c.BackgroundBudget < 0 {
		return fmt.Errorf("%w: negative BackgroundBudget %v", joinorder.ErrInvalidOptions, c.BackgroundBudget)
	}
	if c.DegradeUnder > 0 && c.BackgroundBudget > 0 && c.DegradeUnder >= c.BackgroundBudget {
		return fmt.Errorf("%w: DegradeUnder %v must be below the background refine budget %v",
			joinorder.ErrInvalidOptions, c.DegradeUnder, c.BackgroundBudget)
	}
	return nil
}

// New builds a cache-fronted optimizer. Zero config fields take their
// documented defaults; values no cache can honor (negative sizes or
// budgets, a degrade threshold at or above the refine budget) return an
// error wrapping joinorder.ErrInvalidOptions.
func New(cfg Config) (*Optimizer, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &Optimizer{cfg: cfg}
	o.exact = newStore[string, *canonicalResult](cfg.MaxEntries, cfg.MaxBytes, cfg.TTL, &o.ctr.evicted, &o.ctr.expired)
	o.donors = newStore[string, *donor](cfg.MaxEntries, 0, cfg.TTL, nil, nil)
	if cfg.Persist != nil {
		if err := o.replay(); err != nil {
			return nil, fmt.Errorf("%w: replaying persistent cache: %v", joinorder.ErrInvalidOptions, err)
		}
	}
	return o, nil
}

// Stats snapshots cache effectiveness counters.
func (o *Optimizer) Stats() Stats {
	s := o.ctr.snapshot()
	s.Entries = o.exact.len()
	s.Donors = o.donors.len()
	s.Bytes = o.exact.sizeBytes()
	return s
}

// Len is the current number of exact entries resident.
func (o *Optimizer) Len() int { return o.exact.len() }

// Wait blocks until all background refine solves started by degraded
// serving have completed. Call before reading final Stats or shutting
// down.
func (o *Optimizer) Wait() { o.bg.Wait() }

// EntryInfo describes one resident cache entry for stats output.
type EntryInfo struct {
	// Key is the entry's full cache key (options digest + fingerprint).
	Key string `json:"key"`
	// Hits counts lookups served from this entry.
	Hits int64 `json:"hits"`
	// Age is the time since insertion, in nanoseconds on the wire.
	Age time.Duration `json:"age_ns"`
	// Cost is the cached plan's exact cost.
	Cost float64 `json:"cost"`
	// Tables is the cached plan's table count.
	Tables int `json:"tables"`
}

// Entries lists resident exact entries, most recently used first.
func (o *Optimizer) Entries() []EntryInfo {
	var out []EntryInfo
	o.exact.each(o.cfg.now(), func(key string, v *canonicalResult, age time.Duration, hits int64) {
		out = append(out, EntryInfo{
			Key:    key,
			Hits:   hits,
			Age:    age,
			Cost:   v.res.Cost,
			Tables: len(v.res.Plan.Order),
		})
	})
	return out
}

// Optimize serves the query from cache when possible and falls through to
// the underlying optimizer otherwise. Uncacheable queries (see
// Canonicalize) pass through untouched. Cache activity is surfaced on the
// caller's Options.OnEvent stream via the KindCache*, KindWarmStart, and
// KindDegraded event kinds, interleaved with the underlying solver's
// events under one monotonic sequence.
func (o *Optimizer) Optimize(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
	ce := o.Canonicalize(q)
	res, _, err := o.OptimizeCanonical(ctx, q, ce, ExactKey(ce, opts), opts)
	return res, err
}

// Canonicalize returns q's Exact canonical form for OptimizeCanonical, or
// nil when q is uncacheable or malformed. Callers that need the
// fingerprint before the lookup (routing, a request memo) compute it here
// once and hand it back, so no request is canonicalized twice.
func (o *Optimizer) Canonicalize(q *joinorder.Query) *Canonical {
	ce, _ := o.canonicalize(q, Exact)
	return ce
}

// canonicalize is Canonicalize counted in Stats.Canonicalizations.
func (o *Optimizer) canonicalize(q *joinorder.Query, mode Mode) (*Canonical, error) {
	o.ctr.canonicalizations.Add(1)
	return Canonicalize(q, mode)
}

// ExactKey is the key of the exact entry that answers the query with
// canonical form ce under opts: the options digest plus the fingerprint,
// "" when ce is nil (uncacheable). Every lookup, store, probe and
// invalidation of an exact entry spells its key here. The digest ignores
// the budget's TimeLimit and Threads and the callbacks (see optionsKey), so
// a key computed once stays valid while only those change.
func ExactKey(ce *Canonical, opts joinorder.Options) string {
	if ce == nil {
		return ""
	}
	return "e|" + optionsKey(opts) + "|" + ce.Key
}

// donorKey is ExactKey's counterpart for the shape-level donor index.
func donorKey(cs *Canonical, opts joinorder.Options) string {
	return "s|" + optionsKey(opts) + "|" + cs.Key
}

// Holds reports whether a live exact entry is resident under ekey (an
// ExactKey), honouring the TTL. It is a probe, not a lookup: the entry's
// recency and hit count and the Hits/Misses/Expired counters are untouched,
// so a caller may ask before deciding who answers and let the lookup that
// follows do the accounting.
func (o *Optimizer) Holds(ekey string) bool {
	return ekey != "" && o.exact.has(ekey, o.cfg.now())
}

// EntryID names one stored version of an exact entry. Every store of a key
// — a solve, a refine, a feedback refresh, an import, a replay — makes a new
// version, so two equal non-zero ids mean the same stored plan, and anything
// derived from (a query's canonical form, that plan) is still current. The
// zero EntryID means "not served from a stored entry". An id keeps its
// version's plan reachable, which is what makes it unambiguous for as long
// as it is held.
type EntryID struct{ cr *canonicalResult }

// OptimizeCanonical is Optimize for a caller that already holds ce, the
// result of o.Canonicalize(q) (nil: uncacheable), and ekey, ExactKey(ce,
// opts). Both are only read, so one pair may serve any number of concurrent
// calls, under any TimeLimit. The EntryID is that of the stored entry the
// result was translated from, taken in the lookup that found it; it is zero
// for every answer that is not a plain hit (a solve, a coalesced or degraded
// answer, a hit found only by a new flight leader's second probe, an
// uncacheable query).
func (o *Optimizer) OptimizeCanonical(ctx context.Context, q *joinorder.Query, ce *Canonical, ekey string, opts joinorder.Options) (*joinorder.Result, EntryID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ce == nil {
		// Uncacheable or malformed: the underlying optimizer owns
		// validation and the public error surface.
		o.ctr.uncacheable.Add(1)
		res, err := o.cfg.Optimize(ctx, q, opts)
		return res, EntryID{}, err
	}
	start := o.cfg.now()
	em := newCallEmitter(start, opts)

	if cres, ok := o.exact.get(ekey, start); ok {
		return o.serveHit(cres, ce, em, start), EntryID{cres}, nil
	}
	res, err := o.optimizeMiss(ctx, q, ce, ekey, opts, em, start)
	return res, EntryID{}, err
}

// serveHit answers a request from the stored entry cres, counted as a hit.
func (o *Optimizer) serveHit(cres *canonicalResult, ce *Canonical, em *callEmitter, start time.Time) *joinorder.Result {
	o.ctr.hits.Add(1)
	res := cres.serve(ce, o.cfg.now().Sub(start))
	em.emitResult(joinorder.KindCacheHit, res)
	return res
}

// missHook, when a test has set it, is called by every request whose lookup
// missed, before it joins the key's flight, so that a test can hold a request
// there while another one's flight completes. Nothing outside tests sets it.
var missHook func(ekey string)

// optimizeMiss answers a lookup that found no live entry: from the entry a
// flight stored since, degraded when the budget is tight, otherwise as
// leader or waiter of the key's flight.
func (o *Optimizer) optimizeMiss(ctx context.Context, q *joinorder.Query, ce *Canonical, ekey string, opts joinorder.Options, em *callEmitter, start time.Time) (*joinorder.Result, error) {
	if missHook != nil {
		missHook(ekey)
	}
	f, leader := o.flights.join(ekey)
	if leader {
		// The flight the lookup missed may have completed since, and a
		// flight stores its entry before it completes: a new leader
		// probes again and completes its flight with what it finds.
		if cres, ok := o.exact.get(ekey, o.cfg.now()); ok {
			o.flights.complete(ekey, f, cres, nil)
			return o.serveHit(cres, ce, em, start), nil
		}
	}
	if o.degradeBudget(ctx, opts, start) {
		return o.serveDegraded(ctx, q, opts, ce, ekey, em, f, leader)
	}
	if !leader {
		o.ctr.coalesced.Add(1)
		em.emit(joinorder.Event{Kind: joinorder.KindCacheCoalesced})
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", joinorder.ErrCanceled, ctx.Err())
		}
		if f.err != nil {
			return nil, f.err
		}
		if f.res != nil {
			res := f.res.serve(ce, o.cfg.now().Sub(start))
			em.emitResult(joinorder.KindCacheHit, res)
			return res, nil
		}
		// The leader's result was untranslatable (e.g. a bushy tree
		// with no left-deep plan): solve independently.
		o.ctr.misses.Add(1)
		return o.cfg.Optimize(ctx, q, em.rewire(opts))
	}
	res, cres, err := o.solve(ctx, q, opts, ce, ekey, em)
	o.flights.complete(ekey, f, cres, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// solve is the miss path run by a flight leader: warm-start lookup (only
// when the options read a MIP start), underlying solve, cache population.
// It returns the caller-space result and its canonical-space form for
// coalesced waiters (nil when the result carries no left-deep plan).
func (o *Optimizer) solve(ctx context.Context, q *joinorder.Query, opts joinorder.Options, ce *Canonical, ekey string, em *callEmitter) (*joinorder.Result, *canonicalResult, error) {
	o.ctr.misses.Add(1)
	em.emit(joinorder.Event{Kind: joinorder.KindCacheMiss})

	var cs *Canonical // the Shape form, nil when no donor is kept
	var dkey string   // donorKey(cs, opts), formatted once per solve
	if joinorder.ReadsInitialPlan(opts) {
		if c, err := o.canonicalize(q, Shape); err == nil {
			cs, dkey = c, donorKey(c, opts)
		}
	}
	warmed := false
	if cs != nil && opts.InitialPlan == nil {
		if d, ok := o.donors.get(dkey, o.cfg.now()); ok {
			opts.InitialPlan = &joinorder.Plan{
				Order:     cs.FromCanonical(d.order),
				Operators: slices.Clone(d.ops),
			}
			warmed = true
			o.ctr.warmStarts.Add(1)
			em.emit(joinorder.Event{Kind: joinorder.KindWarmStart})
		}
	}

	res, err := o.cfg.Optimize(ctx, q, em.rewire(opts))
	if err != nil {
		return nil, nil, err
	}
	if warmed && res.MIPStart == "plan" {
		o.ctr.warmStartAccepted.Add(1)
	}
	if res.Plan == nil {
		return res, nil, nil
	}

	now := o.cfg.now()
	if cs != nil {
		o.storeDonor(dkey,
			cloneDonor(cs.ToCanonical(res.Plan.Order), res.Plan.Operators), now)
	}
	var cres *canonicalResult
	if res.Status == joinorder.StatusOptimal {
		// Only proven-optimal results are reusable verbatim: a
		// time-limited incumbent from one request must not masquerade
		// as the answer for the next.
		cres = storeForm(res, ce)
		o.storeExact(ekey, cres, now)
	} else {
		// Still good enough to hand to coalesced waiters of this
		// flight — they asked for exactly this solve.
		cres = storeForm(res, ce)
	}
	return res, cres, nil
}

// degradeBudget reports whether the request's effective time budget is
// tight enough to trigger degraded serving.
func (o *Optimizer) degradeBudget(ctx context.Context, opts joinorder.Options, now time.Time) bool {
	if o.cfg.DegradeUnder <= 0 {
		return false
	}
	budget := opts.Budget.TimeLimit
	if dl, ok := ctx.Deadline(); ok {
		if r := dl.Sub(now); budget <= 0 || r < budget {
			budget = r
		}
	}
	return budget > 0 && budget <= o.cfg.DegradeUnder
}

// fallbackStrategy answers a degraded request: the instant greedy order.
const fallbackStrategy = "greedy"

// serveDegraded answers a tight-deadline miss immediately with
// fallbackStrategy. The leader of the key's flight f also starts one
// background refine solve whose result lands in the cache for the next
// request and completes f.
func (o *Optimizer) serveDegraded(ctx context.Context, q *joinorder.Query, opts joinorder.Options, ce *Canonical, ekey string, em *callEmitter, f *flight, leader bool) (*joinorder.Result, error) {
	o.ctr.degraded.Add(1)
	if leader {
		// The refine keeps the request's Strategy (and Portfolio): an
		// "auto" request is refined by the full portfolio race, so the
		// cached answer is the race winner's plan, not only the MILP's.
		o.refine(ctx, opts, func(bctx context.Context, bgOpts joinorder.Options) {
			_, cres, err := o.solve(bctx, q, bgOpts, ce, ekey, newCallEmitter(o.cfg.now(), bgOpts))
			o.flights.complete(ekey, f, cres, err)
			o.ctr.refines.Add(1)
		})
	}
	fopts := opts
	fopts.Strategy = fallbackStrategy
	fopts.Portfolio = nil // portfolio members ride the refine, not the fallback
	res, err := o.cfg.Optimize(ctx, q, em.rewire(fopts))
	if err != nil {
		return nil, err
	}
	em.emitResult(joinorder.KindDegraded, res)
	return res, nil
}

// refine runs solve in the background on a copy of opts severed from the
// request: no callbacks, a context that outlives the caller's, and
// BackgroundBudget as its one deadline. Budget.TimeLimit is cleared, so a
// degraded request's tight budget cannot cut the refine short.
func (o *Optimizer) refine(ctx context.Context, opts joinorder.Options, solve func(context.Context, joinorder.Options)) {
	opts.OnEvent, opts.OnPlan = nil, nil
	opts.Budget.TimeLimit = 0
	bctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), o.cfg.BackgroundBudget)
	o.bg.Add(1)
	go func() {
		defer o.bg.Done()
		defer cancel()
		solve(bctx, opts)
	}()
}

// serve translates a canonical-space cached result into the labels of the
// requesting query (via its canonical form) and stamps serving time.
func (cr *canonicalResult) serve(c *Canonical, elapsed time.Duration) *joinorder.Result {
	out := *cr.res
	pl := &joinorder.Plan{
		Order:     c.FromCanonical(cr.res.Plan.Order),
		Operators: slices.Clone(cr.res.Plan.Operators),
	}
	out.Plan = pl
	out.Tree = pl.LeftDeep()
	out.Elapsed = elapsed
	return &out
}

// storeForm clones res with its plan translated into canonical label
// space. The Tree is dropped and rebuilt per serve.
func storeForm(res *joinorder.Result, c *Canonical) *canonicalResult {
	cp := *res
	cp.Plan = &joinorder.Plan{
		Order:     c.ToCanonical(res.Plan.Order),
		Operators: slices.Clone(res.Plan.Operators),
	}
	cp.Tree = nil
	return &canonicalResult{res: &cp}
}

// optionsKey digests every option that changes what a solve returns. Of
// the Budget fields, TimeLimit and Threads are deliberately excluded: they
// bound effort, not the optimum, and a proven-optimal cached plan answers
// the query under any budget. Callback fields never affect results. The
// string is embedded in every exact key written to the plan log, so its
// format is pinned by TestOptionsKeyPinned.
func optionsKey(o joinorder.Options) string {
	strat := o.Strategy
	if strat == "" {
		strat = "milp"
	}
	// Portfolio membership changes what "auto" returns, so it is part of
	// the digest; member order is kept (it breaks cost ties). The tr0,
	// epfalse and dp0 slots held the removed Options.ThresholdRatio,
	// Options.ExpensivePredicates and Options.MaxDPTables at their zero
	// values; they stay so that plan logs written before the removal still
	// hit. Evaluation costs need no slot: every strategy bills them from
	// the query, which the fingerprint covers.
	return fmt.Sprintf("%s,m%d,op%d,p%d,tr0,cc%g,gt%g,mn%d,co%t,io%t,epfalse,dp0,pc%d,sf%g,s%d,pf%v",
		strat, o.Metric, o.Op, o.Precision, o.CardCap,
		o.Budget.GapTol, o.Budget.MaxNodes, o.ChooseOperators, o.InterestingOrders,
		o.PartitionCap, o.SeamBudgetFrac, o.Seed, o.Portfolio)
}

// callEmitter re-serialises the caller's event stream for one cache call:
// cache-layer events and the underlying solver's events share one
// monotonic sequence.
type callEmitter struct {
	em *obs.Emitter
}

func newCallEmitter(start time.Time, opts joinorder.Options) *callEmitter {
	if opts.OnEvent == nil {
		return nil
	}
	onEvent := opts.OnEvent
	c := &callEmitter{}
	c.em = obs.NewEmitter(start, func(ev obs.Event) { onEvent(ev) })
	return c
}

// rewire routes the underlying solve's events through this call's
// sequence. The solver's own elapsed stamps (nonzero) are preserved;
// sequence numbers are reassigned so the merged stream stays monotonic.
func (c *callEmitter) rewire(opts joinorder.Options) joinorder.Options {
	if c == nil {
		return opts
	}
	opts.OnEvent = c.em.Emit
	return opts
}

// emit sends one cache-layer event with no anytime state.
func (c *callEmitter) emit(ev joinorder.Event) {
	if c == nil {
		return
	}
	ev.Worker = -1
	ev.Bound = math.Inf(-1)
	ev.Gap = math.Inf(1)
	c.em.Emit(ev)
}

// emitResult sends one cache-layer event carrying the served result's
// objective and bound as its anytime state.
func (c *callEmitter) emitResult(kind joinorder.EventKind, res *joinorder.Result) {
	if c == nil {
		return
	}
	c.em.Emit(joinorder.Event{
		Kind:         kind,
		Worker:       -1,
		Incumbent:    res.Objective,
		Bound:        res.Bound,
		Gap:          res.Gap,
		HasIncumbent: true,
		Nodes:        res.Nodes,
	})
}

// SortEntries orders an entry listing by descending hits (ties broken on
// key) — the order joinopt -stats prints.
func SortEntries(es []EntryInfo) {
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].Hits != es[j].Hits {
			return es[i].Hits > es[j].Hits
		}
		return es[i].Key < es[j].Key
	})
}
