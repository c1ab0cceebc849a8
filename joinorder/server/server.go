package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"milpjoin/internal/obs"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cluster"
)

// Server is the optimization daemon: an http.Handler fronting a
// cache.Optimizer with admission control. Construct with New, mount via
// Handler (or pass the Server itself, it implements http.Handler), and
// stop with Drain. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	co  *cache.Optimizer
	// memo maps request bodies to their resolved form; see gateHTTP.
	memo *cache.Memo[*resolved]
	adm  *admitter
	tb   *tenantBuckets
	log  *slog.Logger
	mux  *http.ServeMux

	draining atomic.Bool
	inflight sync.WaitGroup
	reqID    atomic.Int64
	ctr      serverCounters
}

// serverCounters is the live, atomically updated request accounting
// behind /varz and /metrics.
type serverCounters struct {
	requests     atomic.Int64 // optimize requests received (both endpoints)
	ok           atomic.Int64 // 2xx answers carrying a plan
	degraded     atomic.Int64 // answers served by the fallback strategy
	shed         atomic.Int64 // saturated-queue requests answered degraded
	rejected     atomic.Int64 // 429s (saturated and degradation refused)
	rateLimited  atomic.Int64 // 429s from the tenant token bucket
	badRequest   atomic.Int64 // 400s
	canceled     atomic.Int64 // client disconnected before the answer
	timeouts     atomic.Int64 // budget expired with no plan at all (504)
	failed       atomic.Int64 // 5xx/422
	drainReject  atomic.Int64 // 503s while draining
	streams      atomic.Int64 // SSE requests
	eventsSent   atomic.Int64 // SSE events relayed
	eventsDrop   atomic.Int64 // SSE events dropped on slow consumers
	queueNanos   atomic.Int64 // total admission-queue wait
	solveNanos   atomic.Int64 // total in-solve wall time
	solves       atomic.Int64 // solves dispatched to a worker
	solverNodes  atomic.Int64 // branch-and-bound nodes, summed over solves
	simplexIters atomic.Int64 // simplex iterations, summed over solves
	incumbents   atomic.Int64 // incumbent improvements, summed over solves
	portfolio    atomic.Int64 // strategy=auto requests admitted with weight > 1
	batches      atomic.Int64 // batch requests received
	batchItems   atomic.Int64 // individual queries across all batches
	keptHits     atomic.Int64 // plan answers written from a request text's kept bytes
	renders      atomic.Int64 // plan answers rendered in full
}

// requestWeight is the admission weight of one request: a portfolio race
// occupies one worker slot per member, a single strategy occupies one.
func requestWeight(opts joinorder.Options) int {
	if opts.Strategy != "auto" {
		return 1
	}
	if n := len(opts.Portfolio); n > 0 {
		return n
	}
	return len(joinorder.DefaultPortfolio())
}

// New builds a Server from the config (zero fields defaulted, invalid
// values rejected with joinorder.ErrInvalidOptions).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cluster != nil && cfg.Cache.OnStore == nil {
		// Every freshly solved entry replicates to the fingerprint's ring
		// successors; replayed and imported entries never re-announce.
		rt := cfg.Cluster
		cfg.Cache.OnStore = func(kind, key string, val []byte) {
			rt.Replicate(routingFingerprint(key), kind, key, val)
		}
	}
	co, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		co:   co,
		memo: newRequestMemo(cfg.Cache),
		adm:  newAdmitter(cfg.MaxWorkers, cfg.QueueDepth),
		tb:   newTenantBuckets(cfg.TenantRate, cfg.TenantBurst),
		log:  cfg.Logger,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/optimize/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/optimize/stream", s.handleStream)
	s.mux.HandleFunc("POST "+cluster.EntryPath, s.handleClusterEntry)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	registerVarz(s)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Cache exposes the fronted plan cache (stats, entries) for CLIs and
// tests.
func (s *Server) Cache() *cache.Optimizer { return s.co }

// Draining reports whether the server has stopped accepting new
// optimization work.
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain stops admitting new optimization requests (they get 503 +
// Retry-After) and flips /healthz to 503 so load balancers stop routing
// here. In-flight solves continue; call Drain to wait for them.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully stops the server: no new work is admitted, in-flight
// requests run to completion (each already bounded by its own deadline),
// background cache refines finish, and the final cache statistics are
// flushed to the log. The context bounds the wait; on expiry Drain
// returns the context error with work still in flight.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.co.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	unregisterVarz(s)
	cs := s.co.Stats()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "drain complete",
		slog.Bool("clean", err == nil),
		slog.Int64("requests", s.ctr.requests.Load()),
		slog.Int64("cache_hits", cs.Hits),
		slog.Int64("cache_misses", cs.Misses),
		slog.Int64("coalesced", cs.Coalesced),
		slog.Int64("degraded", cs.Degraded),
		slog.Int64("refines", cs.Refines),
		slog.Int("entries", cs.Entries),
	)
	return err
}

// resolved is what the gate derives from a request's bytes alone: the
// decoded request, its validated query, its options under this server's
// budget limits, the query's canonical form (nil when uncacheable) and the
// exact-entry key of the two ("" when uncacheable) — the one key the
// residency probe and the cache lookup both use. The request memo shares
// one resolved between all byte-identical requests, concurrently, so
// nothing in it is written once it is memoized, except through kept.
type resolved struct {
	req   *OptimizeRequest
	q     *joinorder.Query
	opts  joinorder.Options
	canon *cache.Canonical
	ekey  string

	// kept is the third level of the lookup text → fingerprint → plan →
	// bytes: the response last rendered for this text as a plain cache hit,
	// tagged with the entry that answered. runSolve reuses it while lookups
	// return that entry and replaces it when they return another.
	kept atomic.Pointer[keptResponse]
	// keptMax bounds len(kept.body); memoize charges it to the memo's byte
	// budget up front. Zero (a resolved no memo holds) keeps nothing.
	keptMax int
}

// prepared is one optimize request that cleared the gate: rate-limit
// charged, query and options resolved. Every front end hands it to serve.
// The embedded resolved may be shared with other requests; every other
// field belongs to this request alone.
type prepared struct {
	*resolved
	arrived time.Time
	id      string
	// raw is the request body as received, kept for cluster forwarding;
	// rawBuf is the pooled buffer it lives in (nil: not pooled), which the
	// front end releases when it has written its answer.
	raw    []byte
	rawBuf *[]byte
	// forwarded marks a request that already hopped once (the
	// cluster.ForwardHeader was present): it is pinned local and its
	// tenant budget was charged at the ingress node.
	forwarded bool
	// memoHit marks a request whose resolved came from the request memo.
	memoHit bool
	// replica marks a request another node owns that is answered here
	// because this node holds its exact entry (see remoteOwner).
	replica bool
}

// Request-memo sizing, derived from the plan cache's own bounds so there
// is nothing to configure: several request texts reach one plan entry
// (relabelings, budgets, whitespace), and a text's decoded form is a few
// times its length.
const (
	memoTextsPerPlan  = 4
	memoBytesPerEntry = 8 << 10 // byte budget per entry when Cache.MaxBytes is unset
	memoResolvedScale = 3       // resident bytes of a resolved per byte of its text
	// A response names each table about as often as its request does; the
	// slack covers the solver statistics a MILP answer carries.
	memoKeptSlack = 1 << 10 // kept response bytes allowed beyond the text's length
	maxMemoBody   = 64 << 10
)

func newRequestMemo(cc cache.Config) *cache.Memo[*resolved] {
	entries := memoTextsPerPlan * cc.MaxEntries
	maxBytes := cc.MaxBytes
	if maxBytes == 0 {
		maxBytes = int64(entries) * memoBytesPerEntry
	}
	return cache.NewMemo[*resolved](entries, maxBytes)
}

// memoize files rv under the request text it was resolved from. The entry
// is charged for the text, the resolved form and the response bytes rv may
// come to keep, so those count against the memo's byte budget whether or
// not a hit ever renders them.
func (s *Server) memoize(raw []byte, rv *resolved) {
	rv.keptMax = len(raw) + memoKeptSlack
	s.memo.Put(raw, rv, memoResolvedScale*int64(len(raw))+int64(rv.keptMax))
}

// resolve runs the gates that depend on the request's bytes alone: query,
// options, canonical form, exact-entry key.
func (s *Server) resolve(req *OptimizeRequest) (*resolved, *httpError) {
	q, err := req.query()
	var opts joinorder.Options
	if err == nil {
		opts, err = req.options(s.cfg)
	}
	if err != nil {
		return nil, errBadRequest(err.Error())
	}
	canon := s.co.Canonicalize(q)
	return &resolved{req: req, q: q, opts: opts, canon: canon, ekey: cache.ExactKey(canon, opts)}, nil
}

// gate runs the transport-free pre-admission gates on one decoded
// request, in the order every front end shares: tenant bill (ingress
// only), then resolve — skipped when the front end found rv in the
// request memo. The front end has already checked the drain flag and
// decoded the body.
func (s *Server) gate(req *OptimizeRequest, rv *resolved, tenant string, forwarded bool) (*prepared, *httpError) {
	if !forwarded {
		// Forwarded arrivals were already charged at their ingress node;
		// charging the forwarding hop again would double-bill the tenant.
		if ok, wait := s.tb.allow(tenant, s.cfg.now()); !ok {
			s.ctr.rateLimited.Add(1)
			return nil, &httpError{
				status:     http.StatusTooManyRequests,
				code:       CodeRateLimited,
				msg:        fmt.Sprintf("tenant %q over rate limit", tenant),
				retryAfter: wait,
			}
		}
	}
	memoHit := rv != nil
	if !memoHit {
		var herr *httpError
		if rv, herr = s.resolve(req); herr != nil {
			s.ctr.badRequest.Add(1)
			return nil, herr
		}
	}
	return &prepared{
		resolved:  rv,
		arrived:   s.cfg.now(),
		id:        requestID(s.reqID.Add(1)),
		forwarded: forwarded,
		memoHit:   memoHit,
	}, nil
}

// requestID spells the n-th request's id: "r" and n zero-padded to six
// digits.
func requestID(n int64) string {
	b := make([]byte, 0, 8)
	b = append(b, 'r')
	for pad := int64(100000); pad > 1 && n < pad; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, n, 10))
}

// gateHTTP is the decode half of the two single-request front ends:
// drain check, body read, request memo, then the shared gate. A body seen
// before skips decoding and resolve; everything per-request — drain flag,
// tenant bill, id, arrival time, forwarded flag — is settled afresh. Only
// bodies that clear the whole gate are memoized.
func (s *Server) gateHTTP(w http.ResponseWriter, r *http.Request) (*prepared, *httpError) {
	s.ctr.requests.Add(1)
	if s.draining.Load() {
		s.ctr.drainReject.Add(1)
		return nil, errDraining()
	}
	raw, rawBuf, err := readBody(w, r)
	if err != nil {
		s.ctr.badRequest.Add(1)
		return nil, errBadRequest(err.Error())
	}
	memoable := len(raw) <= maxMemoBody
	var rv *resolved
	if memoable {
		rv, _ = s.memo.Get(raw)
	}
	req := &OptimizeRequest{}
	if rv != nil {
		req = rv.req
	} else if err := json.Unmarshal(raw, req); err != nil {
		s.ctr.badRequest.Add(1)
		return nil, errBadRequest(fmt.Sprintf("parsing request: %v", err))
	}
	pr, herr := s.gate(req, rv, req.tenant(r), r.Header.Get(cluster.ForwardHeader) != "")
	if herr != nil {
		return nil, herr
	}
	if memoable && !pr.memoHit {
		s.memoize(raw, pr.resolved)
	}
	pr.raw, pr.rawBuf = raw, rawBuf
	return pr, nil
}

// callFlags records what the cache-layer event stream reported about one
// request. Event callbacks are serialised and complete before Optimize
// returns, so plain fields suffice.
type callFlags struct {
	cacheHit  bool
	coalesced bool
	degraded  bool
}

func (f *callFlags) observe(ev joinorder.Event) {
	switch ev.Kind {
	case joinorder.KindCacheHit:
		f.cacheHit = true
	case joinorder.KindCacheCoalesced:
		f.coalesced = true
	case joinorder.KindDegraded:
		f.degraded = true
	}
}

// serve runs one prepared request through admission and the cached
// optimizer; it is the only code that touches the admitter, sheds,
// sets the request's deadline and settles the outcome counters. onEvent, when
// non-nil, additionally receives every solver event (the SSE relay).
// Exactly one of the response and the error is non-nil.
func (s *Server) serve(ctx context.Context, pr *prepared, onEvent func(joinorder.Event)) (*OptimizeResponse, *httpError) {
	s.inflight.Add(1)
	defer s.inflight.Done()

	deadline := pr.arrived.Add(pr.opts.Budget.TimeLimit)
	weight := requestWeight(pr.opts)
	if weight > 1 {
		s.ctr.portfolio.Add(1)
	}
	t, err := s.adm.admit(deadline, weight)
	if errors.Is(err, errSaturated) {
		if !pr.req.allowDegraded() {
			s.ctr.rejected.Add(1)
			s.logRequest(pr, "rejected", 0, 0, nil)
			return nil, &httpError{
				status:     http.StatusTooManyRequests,
				code:       CodeSaturated,
				msg:        "admission queue saturated and request refuses degraded answers",
				retryAfter: s.shedRetryAfter(),
			}
		}
		s.ctr.shed.Add(1)
		return s.serveDegraded(ctx, pr, onEvent)
	}

	// Wait for a worker slot, racing the client's connection and the
	// request deadline.
	waitCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	select {
	case <-t.ready:
	case <-waitCtx.Done():
		if s.adm.cancel(t) {
			// Withdrawn while still queued: no slot to release.
			if ctx.Err() != nil {
				s.ctr.canceled.Add(1)
				s.logRequest(pr, "client gone", 0, 0, nil)
				return nil, &httpError{status: statusClientClosedRequest, code: CodeClientClosed, msg: "client closed request"}
			}
			// Deadline burned entirely in the queue: the degraded
			// answer is all that is left of the budget.
			if pr.req.allowDegraded() {
				s.ctr.shed.Add(1)
				return s.serveDegraded(ctx, pr, onEvent)
			}
			s.ctr.timeouts.Add(1)
			s.logRequest(pr, "queue timeout", 0, 0, nil)
			return nil, &httpError{
				status:     http.StatusGatewayTimeout,
				code:       CodeTimeout,
				msg:        "request deadline expired in the admission queue",
				retryAfter: s.shedRetryAfter(),
			}
		}
		// The slot was granted concurrently with our withdrawal; fall
		// through and use it — the solve context below handles the
		// expired budget or gone client immediately.
	}
	defer s.adm.release(t)
	queueWait := s.cfg.now().Sub(pr.arrived)
	s.ctr.queueNanos.Add(int64(queueWait))
	s.ctr.solves.Add(1)

	// waitCtx's deadline, arrival plus budget, is the request's clock: the
	// time spent queueing has already come off it.
	return s.runSolve(waitCtx, pr, pr.opts, queueWait, onEvent)
}

// serveDegraded answers a shed request immediately through the cache's
// degraded path: the fallback strategy's plan now, one deduplicated
// background refine warming the cache for the retry. The solve budget is
// pinned to the cache's degrade threshold so the path triggers regardless
// of the requested budget.
func (s *Server) serveDegraded(ctx context.Context, pr *prepared, onEvent func(joinorder.Event)) (*OptimizeResponse, *httpError) {
	opts := pr.opts
	opts.Budget.TimeLimit = s.cfg.Cache.DegradeUnder
	resp, herr := s.runSolve(ctx, pr, opts, 0, onEvent)
	// resp.Degraded comes from the cache's KindDegraded event — a shed
	// request that hits the exact cache gets the full cached answer and
	// is not marked degraded.
	if herr != nil {
		herr.retryAfter = s.shedRetryAfter()
	}
	return resp, herr
}

// runSolve executes the solve with the given options and maps the
// outcome to a response. The caller has already settled admission.
func (s *Server) runSolve(ctx context.Context, pr *prepared, opts joinorder.Options, queueWait time.Duration, onEvent func(joinorder.Event)) (*OptimizeResponse, *httpError) {
	flags := &callFlags{}
	sinks := []func(joinorder.Event){flags.observe}
	if onEvent != nil {
		sinks = append(sinks, onEvent)
	}
	if s.cfg.LogEvents {
		sinks = append(sinks, obs.SlogHandler(s.log, slog.LevelDebug, slog.String("req", pr.id)))
	}
	opts.OnEvent = func(ev joinorder.Event) {
		for _, sink := range sinks {
			sink(ev)
		}
	}

	solveStart := s.cfg.now()
	// opts differs from pr.opts in its time limit and callbacks only, which
	// the key ignores.
	res, entry, err := s.co.OptimizeCanonical(ctx, pr.q, pr.canon, pr.ekey, opts)
	solveWait := s.cfg.now().Sub(solveStart)
	s.ctr.solveNanos.Add(int64(solveWait))

	if err != nil {
		switch {
		case errors.Is(err, joinorder.ErrCanceled) && ctx.Err() != nil && errors.Is(ctx.Err(), context.Canceled):
			s.ctr.canceled.Add(1)
			s.logRequest(pr, "client gone mid-solve", queueWait, solveWait, nil)
			return nil, &httpError{status: statusClientClosedRequest, code: CodeClientClosed, msg: "client closed request"}
		case errors.Is(err, joinorder.ErrCanceled), errors.Is(err, joinorder.ErrNoPlan):
			s.ctr.timeouts.Add(1)
			s.logRequest(pr, "no plan within budget", queueWait, solveWait, nil)
			return nil, &httpError{status: http.StatusGatewayTimeout, code: CodeTimeout, msg: fmt.Sprintf("no plan within the budget: %v", err)}
		case errors.Is(err, joinorder.ErrInvalidQuery), errors.Is(err, joinorder.ErrInvalidOptions), errors.Is(err, joinorder.ErrUnknownStrategy):
			s.ctr.badRequest.Add(1)
			return nil, errBadRequest(err.Error())
		case errors.Is(err, joinorder.ErrInfeasible):
			s.ctr.failed.Add(1)
			return nil, &httpError{status: http.StatusUnprocessableEntity, code: CodeInfeasible, msg: err.Error()}
		default:
			s.ctr.failed.Add(1)
			s.logRequest(pr, "solve failed: "+err.Error(), queueWait, solveWait, nil)
			return nil, &httpError{status: http.StatusInternalServerError, code: CodeInternal, msg: err.Error()}
		}
	}

	s.ctr.ok.Add(1)
	if flags.degraded {
		s.ctr.degraded.Add(1)
	}
	s.ctr.solverNodes.Add(int64(res.Nodes))
	if res.Stats != nil {
		s.ctr.simplexIters.Add(int64(res.Stats.SimplexIters))
		s.ctr.incumbents.Add(int64(res.Stats.Incumbents))
	}
	resp := &OptimizeResponse{
		Result:      res,
		Degraded:    flags.degraded,
		CacheHit:    flags.cacheHit,
		Coalesced:   flags.coalesced,
		QueueMillis: float64(queueWait) / float64(time.Millisecond),
		TotalMillis: float64(s.cfg.now().Sub(pr.arrived)) / float64(time.Millisecond),
	}
	if pr.useKept(resp, entry) {
		s.ctr.keptHits.Add(1)
	} else {
		s.ctr.renders.Add(1)
	}
	s.logRequest(pr, "ok", queueWait, solveWait, resp)
	return resp, nil
}

// useKept ties resp, answered by entry, to the bytes its request text
// keeps, and reports whether those were rendered by an earlier request. A
// plain hit (non-zero entry) for a memoized text has a body that, but for
// three numbers, is a function of (text, entry); the id came out of the
// lookup that produced the result, so bytes kept under it were rendered from
// this plan. Under another id, or none yet, the response is rendered and cut
// here and the text keeps the outcome — also a refusal, so an entry whose
// response cannot be kept is not rendered twice per hit.
func (pr *prepared) useKept(resp *OptimizeResponse, entry cache.EntryID) bool {
	if entry == (cache.EntryID{}) || pr.keptMax == 0 {
		return false
	}
	k := pr.kept.Load()
	reused := k != nil && k.entry == entry
	if !reused {
		k = keepResponse(resp, entry, pr.keptMax)
		pr.kept.Store(k)
	}
	if k.body == nil {
		return false
	}
	resp.kept = k
	return reused
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before an answer existed. Nothing is usually written — the
// connection is gone — but handler tests can still observe it.
const statusClientClosedRequest = 499

// shedRetryAfter estimates when shed work could be admitted: the queue is
// full of requests each holding at most the default budget, spread over
// the worker pool.
func (s *Server) shedRetryAfter() time.Duration {
	_, queued := s.adm.load()
	per := s.cfg.Cache.DegradeUnder
	if per <= 0 {
		per = 100 * time.Millisecond
	}
	est := time.Duration(queued+1) * per / time.Duration(s.cfg.MaxWorkers)
	if est < time.Second {
		est = time.Second
	}
	return est
}

// retryAfterSeconds formats a wait for the Retry-After header (whole
// seconds, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// logRequest emits the one structured record every optimize request gets.
func (s *Server) logRequest(pr *prepared, outcome string, queueWait, solveWait time.Duration, resp *OptimizeResponse) {
	if !s.log.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	// Fifteen is every attr below at once, so the appends never grow.
	var arr [15]slog.Attr
	attrs := append(arr[:0],
		slog.String("req", pr.id),
		slog.String("outcome", outcome),
		slog.Int("tables", pr.q.NumTables()),
		slog.String("strategy", defaultStrategy(pr.opts.Strategy)),
		slog.Duration("queue", queueWait.Truncate(time.Microsecond)),
		slog.Duration("solve", solveWait.Truncate(time.Microsecond)),
	)
	if t := pr.req.Tenant; t != "" {
		attrs = append(attrs, slog.String("tenant", t))
	}
	if pr.memoHit {
		attrs = append(attrs, slog.Bool("memo", true))
	}
	if pr.replica {
		attrs = append(attrs, slog.Bool("replica", true))
	}
	if resp != nil && resp.Result != nil {
		attrs = append(attrs,
			slog.String("status", resp.Result.Status.String()),
			slog.Float64("cost", resp.Result.Cost))
		if resp.Result.Winner != "" {
			attrs = append(attrs, slog.String("winner", resp.Result.Winner))
		}
		if !math.IsInf(resp.Result.Gap, 0) {
			attrs = append(attrs, slog.Float64("gap", resp.Result.Gap))
		}
		if resp.Degraded {
			attrs = append(attrs, slog.Bool("degraded", true))
		}
		if resp.CacheHit {
			attrs = append(attrs, slog.Bool("cache_hit", true))
		}
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "optimize", attrs...)
}

func defaultStrategy(s string) string {
	if s == "" {
		return joinorder.DefaultStrategy
	}
	return s
}

// handleOptimize is POST /v1/optimize: one JSON answer when the solve
// finishes (or is degraded/shed).
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	pr, herr := s.gateHTTP(w, r)
	if herr != nil {
		writeError(w, herr)
		return
	}
	defer pr.releaseBody()
	if s.tryForward(w, r, pr) {
		return
	}
	resp, herr := s.serve(r.Context(), pr, nil)
	if herr != nil {
		writeError(w, herr)
		return
	}
	if resp.Degraded {
		// A degraded answer is still an answer, but the header tells the
		// client when a non-degraded retry is likely to be admitted.
		w.Header().Set("Retry-After", retryAfterSeconds(s.shedRetryAfter()))
	}
	writeResponse(w, resp)
}

// releaseBody hands the request's pooled body buffer back, if it has one.
// The front end calls it once its answer is written: the memo took its own
// copy of the text and nothing decoded from it aliases the buffer.
func (pr *prepared) releaseBody() {
	if pr.rawBuf != nil {
		bodyBufs.Put(pr.rawBuf)
		pr.raw, pr.rawBuf = nil, nil
	}
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
