// Command joinoptd serves join-order optimization over HTTP: a network
// daemon fronting the plan cache and the anytime MILP solver with
// admission control, per-tenant rate limits, request coalescing, and
// load shedding into degraded (fallback-strategy) plans.
//
// Endpoints:
//
//	POST /v1/optimize         one JSON request → one JSON plan
//	POST /v1/optimize/batch   many requests → one JSON document with
//	                          per-query result-or-error envelopes
//	POST /v1/optimize/stream  the same request, answered as an SSE stream
//	                          of solver events ending in a result event
//	POST /v1/cluster/entry    peer-to-peer cache replication ingest
//	GET  /healthz             "ok", or 503 while draining
//	GET  /varz                expvar JSON (key "joinoptd")
//	GET  /metrics             Prometheus text exposition
//
// Example:
//
//	joinoptd -addr :8080 -workers 8 -default-timeout 5s
//	curl -s localhost:8080/v1/optimize -d '{"sql":"...","catalog":{...}}'
//
// With -cache-dir the plan cache is disk-backed: stored plans append to
// a crash-safe record log replayed on startup, so a restarted daemon
// serves previously seen queries without re-solving.
//
// With -peers and -node-id the daemon joins a sharded cluster: a
// consistent-hash ring over canonical query fingerprints routes each
// request to its owning node (misses that hash elsewhere are forwarded),
// fresh cache entries replicate to ring successors, and a node whose
// peer is down fails open to a local solve:
//
//	joinoptd -addr :8080 -node-id n0 -cache-dir /var/lib/joinoptd/n0 \
//	  -peers n0=http://10.0.0.1:8080,n1=http://10.0.0.2:8080,n2=http://10.0.0.3:8080
//
// SIGTERM or SIGINT begins a graceful drain: new work is refused with
// 503 + Retry-After, in-flight solves (including background refines)
// complete, then the process exits. A second signal force-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
	"milpjoin/joinorder/cluster"
	"milpjoin/joinorder/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		workers        = flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		queueDepth     = flag.Int("queue", 0, "admission queue depth (0 = 8×workers)")
		defaultTimeout = flag.Duration("default-timeout", 10*time.Second, "solve budget when the request names none")
		maxTimeout     = flag.Duration("max-timeout", time.Minute, "hard cap on any request's solve budget")
		tenantRate     = flag.Float64("tenant-rate", 0, "per-tenant requests/sec (0 = unlimited)")
		tenantBurst    = flag.Int("tenant-burst", 0, "per-tenant burst (0 = ceil(rate))")
		cacheEntries   = flag.Int("cache-entries", 1024, "plan cache capacity")
		cacheTTL       = flag.Duration("cache-ttl", 0, "plan cache entry TTL (0 = no expiry)")
		cacheMaxBytes  = flag.Int64("cache-max-bytes", 0, "plan cache byte bound (0 = entry count only)")
		cacheDir       = flag.String("cache-dir", "", "directory for the persistent plan log (empty = memory only)")
		persistSync    = flag.String("persist-sync", "interval", "persistent log fsync policy: interval, always, or none")
		degradeUnder   = flag.Duration("degrade-under", 150*time.Millisecond, "serve a greedy plan when the budget is at most this (0 = the 150ms default; degrading cannot be turned off)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight work on shutdown")
		nodeID         = flag.String("node-id", "", "this node's cluster peer ID (requires -peers)")
		peerList       = flag.String("peers", "", "static cluster membership as id=url,id=url (includes this node)")
		replicas       = flag.Int("replicas", 2, "ring successors receiving copies of each stored entry (0 = none)")
		probeInterval  = flag.Duration("probe-interval", 2*time.Second, "peer health probe period")
		logEvents      = flag.Bool("log-events", false, "log every solver event at debug level")
		verbose        = flag.Bool("v", false, "debug logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "joinoptd:", err)
		os.Exit(2)
	}

	var plog *persist.Log
	if *cacheDir != "" {
		policy, err := persist.ParseSyncPolicy(*persistSync)
		if err != nil {
			fatal(err)
		}
		plog, err = persist.Open(persist.Config{Dir: *cacheDir, Policy: policy})
		if err != nil {
			fatal(err)
		}
		defer plog.Close()
	}

	var router *cluster.Router
	if *peerList != "" || *nodeID != "" {
		peers, err := cluster.ParsePeers(*peerList)
		if err != nil {
			fatal(err)
		}
		router, err = cluster.New(cluster.Config{
			Self:          *nodeID,
			Peers:         peers,
			Replicas:      *replicas,
			ProbeInterval: *probeInterval,
			Logger:        log,
		})
		if err != nil {
			fatal(err)
		}
		defer router.Close()
		log.Info("cluster membership", "self", *nodeID, "peers", *peerList, "replicas", *replicas)
	}

	srv, err := server.New(server.Config{
		MaxWorkers:       *workers,
		QueueDepth:       *queueDepth,
		DefaultTimeLimit: *defaultTimeout,
		MaxTimeLimit:     *maxTimeout,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		Cache: cache.Config{
			MaxEntries:   *cacheEntries,
			MaxBytes:     *cacheMaxBytes,
			TTL:          *cacheTTL,
			DegradeUnder: *degradeUnder,
			Persist:      plog,
		},
		Cluster:   router,
		Logger:    log,
		LogEvents: *logEvents,
	})
	if err != nil {
		fatal(err)
	}
	if plog != nil {
		ps := plog.Stats()
		cs := srv.Cache().Stats()
		log.Info("plan cache replayed", "dir", *cacheDir,
			"records", ps.LiveRecords, "entries", cs.Entries, "donors", cs.Donors,
			"evicted", cs.ReplayEvicted, "torn_bytes_dropped", ps.TornBytesDropped)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Info("joinoptd listening", "addr", *addr,
		"workers", *workers, "gomaxprocs", runtime.GOMAXPROCS(0))

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String(), "timeout", *drainTimeout)
	}

	// Graceful drain: refuse new work, let in-flight requests (and the
	// cache's background refines) finish, then exit. A second signal
	// force-exits immediately.
	srv.BeginDrain()
	go func() {
		sig := <-sigc
		log.Warn("force exit", "signal", sig.String())
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Warn("http shutdown incomplete", "err", err)
	}
	if err := srv.Drain(ctx); err != nil {
		log.Warn("drain incomplete", "err", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
}
