// Package server turns the join-order optimizer into a network service:
// an HTTP/JSON daemon fronting the joinorder/cache serving layer with
// admission control, request coalescing, streaming anytime plans, and
// graceful drain — the operational form of the paper's core claim that a
// MILP optimizer is an *anytime* service whose answer at any interruption
// point is an incumbent plan with a proven cost bound.
//
// Endpoints:
//
//	POST /v1/optimize        one-shot optimization; JSON in, JSON out
//	POST /v1/optimize/stream same request, answered as an SSE stream of
//	                         solver events (watch the anytime gap close
//	                         live; disconnecting cancels the solve)
//	POST /v1/optimize/batch  many requests in, one JSON document out with
//	                         a result-or-error envelope per query
//	POST /v1/cluster/entry   peer-to-peer cache replication ingest
//	GET  /healthz            liveness (503 while draining)
//	GET  /varz               expvar counters (JSON)
//	GET  /metrics            Prometheus text exposition
//
// The three optimize endpoints are decode/encode front ends over one
// request pipeline, gate → route → admit → solve. The gates run in one
// order everywhere: drain check, body decode, per-tenant token bucket
// (charged at the ingress node only; 429 + Retry-After when exhausted),
// query, options, canonical form. The two single-request endpoints look
// the body's bytes up in a request memo first: a byte-identical repeat
// reuses the decoded, validated and fingerprinted form of its first
// sighting and only the per-request gates run. Routing forwards a gated
// request, on the fingerprint the gate computed, when another node of the
// cluster owns it; the same fingerprint then keys the plan cache. Admission
// (serve) is a bounded worker pool sized off GOMAXPROCS behind a bounded
// queue ordered by request deadline; a batch is admitted item by item,
// each with its own weight, deadline and queue time. When the queue is
// saturated, or a request's deadline burns away in it, the server
// degrades instead of failing: the request is answered immediately with
// the cache's fallback-strategy plan (the DegradeUnder path, which also
// starts one deduplicated background refine whose result lands in the
// cache for the retry the Retry-After header invites). Every request
// therefore gets a plan, a degraded plan, or a 429 — never a silent drop.
package server

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"time"

	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cluster"
)

// Config configures a Server. The zero value is production-usable:
// GOMAXPROCS workers, an 8×-deep queue, 10s default / 60s maximum solve
// budgets, no tenant rate limiting, and a cache that degrades requests
// with under 150ms of budget left.
type Config struct {
	// MaxWorkers bounds concurrent solves (default: GOMAXPROCS). Each
	// admitted request occupies one worker for the duration of its solve;
	// coalesced waiters hold theirs too, so the bound is on in-flight
	// requests actually consuming CPU or waiting for a leader.
	MaxWorkers int
	// QueueDepth bounds the deadline-ordered admission queue (default:
	// 8×MaxWorkers). A request arriving to a full queue is shed: answered
	// degraded when it allows that, 429 otherwise.
	QueueDepth int

	// DefaultTimeLimit is the solve budget of requests that name none
	// (default 10s).
	DefaultTimeLimit time.Duration
	// MaxTimeLimit caps per-request budgets (default 60s); larger asks
	// are clamped, not rejected, so a misconfigured client degrades the
	// answer quality rather than monopolizing a worker.
	MaxTimeLimit time.Duration

	// TenantRate is the sustained per-tenant request rate in requests
	// per second (0: unlimited). Tenants are named by the X-Tenant
	// header or the request's "tenant" field; unnamed requests share
	// one bucket.
	TenantRate float64
	// TenantBurst is the per-tenant burst size (default: ceil(TenantRate),
	// at least 1, when TenantRate is set).
	TenantBurst int

	// Cache configures the fronted plan cache. Zero fields take the cache
	// defaults, except DegradeUnder: 0 means 150ms, not "never", because a
	// request shed from a saturated queue is answered through that path.
	Cache cache.Config

	// Cluster, when set, shards this server into a joinoptd fleet: the
	// router's consistent-hash ring routes each request's canonical
	// fingerprint to its owning node (forwarding those owned elsewhere),
	// freshly stored cache entries replicate to ring successors, and the
	// /v1/cluster/entry ingest endpoint accepts peers' replicas. The
	// server wires the cache's OnStore hook to the router unless the
	// caller already set one. The caller owns the router's lifecycle
	// (cluster.New before server.New, Close after drain).
	Cluster *cluster.Router

	// Logger receives request and solve logging (default: slog.Default()).
	// Solver events are rendered onto it through obs.SlogHandler when
	// LogEvents is set.
	Logger *slog.Logger
	// LogEvents additionally logs every solver event at debug level —
	// one line per incumbent, bound improvement, cut round, … — keyed by
	// request ID.
	LogEvents bool

	// now overrides the clock in tests.
	now func() time.Time
}

// withDefaults returns the config with every zero field replaced by its
// documented default.
func (c Config) withDefaults() Config {
	if c.MaxWorkers == 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8 * c.MaxWorkers
	}
	if c.DefaultTimeLimit == 0 {
		c.DefaultTimeLimit = 10 * time.Second
	}
	if c.MaxTimeLimit == 0 {
		c.MaxTimeLimit = 60 * time.Second
	}
	if c.TenantRate > 0 && c.TenantBurst == 0 {
		c.TenantBurst = max(1, int(math.Ceil(c.TenantRate)))
	}
	if c.Cache.DegradeUnder == 0 {
		c.Cache.DegradeUnder = 150 * time.Millisecond
	}
	c.Cache = c.Cache.WithDefaults()
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Validate checks the caller-supplied config, including the embedded
// cache config (cache.Config.Validate) and the cross-layer constraint the
// cache alone cannot see: a degrade threshold at or above the default
// request deadline would degrade every request.
func (c Config) Validate() error {
	if c.MaxWorkers < 0 {
		return fmt.Errorf("%w: negative MaxWorkers %d", joinorder.ErrInvalidOptions, c.MaxWorkers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("%w: negative QueueDepth %d", joinorder.ErrInvalidOptions, c.QueueDepth)
	}
	if c.DefaultTimeLimit < 0 {
		return fmt.Errorf("%w: negative DefaultTimeLimit %v", joinorder.ErrInvalidOptions, c.DefaultTimeLimit)
	}
	if c.MaxTimeLimit < 0 {
		return fmt.Errorf("%w: negative MaxTimeLimit %v", joinorder.ErrInvalidOptions, c.MaxTimeLimit)
	}
	if c.DefaultTimeLimit > 0 && c.MaxTimeLimit > 0 && c.DefaultTimeLimit > c.MaxTimeLimit {
		return fmt.Errorf("%w: DefaultTimeLimit %v exceeds MaxTimeLimit %v",
			joinorder.ErrInvalidOptions, c.DefaultTimeLimit, c.MaxTimeLimit)
	}
	if c.TenantRate < 0 {
		return fmt.Errorf("%w: negative TenantRate %g", joinorder.ErrInvalidOptions, c.TenantRate)
	}
	if c.TenantBurst < 0 {
		return fmt.Errorf("%w: negative TenantBurst %d", joinorder.ErrInvalidOptions, c.TenantBurst)
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if dl := c.DefaultTimeLimit; dl > 0 && c.Cache.DegradeUnder >= dl {
		return fmt.Errorf("%w: cache DegradeUnder %v at or above the default request deadline %v would degrade every request",
			joinorder.ErrInvalidOptions, c.Cache.DegradeUnder, dl)
	}
	return nil
}
