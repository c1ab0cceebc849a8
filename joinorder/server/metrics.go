package server

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cluster"
)

// Snapshot is a point-in-time view of the daemon's counters, served as
// JSON on /varz (under the expvar key "joinoptd") and as Prometheus text
// on /metrics.
type Snapshot struct {
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok"`
	Degraded    int64 `json:"degraded"`
	Shed        int64 `json:"shed"`
	Rejected    int64 `json:"rejected"`
	RateLimited int64 `json:"rate_limited"`
	BadRequest  int64 `json:"bad_request"`
	Canceled    int64 `json:"canceled"`
	Timeouts    int64 `json:"timeouts"`
	Failed      int64 `json:"failed"`
	DrainReject int64 `json:"drain_rejected"`

	Streams       int64 `json:"sse_streams"`
	EventsRelayed int64 `json:"sse_events_relayed"`
	EventsDropped int64 `json:"sse_events_dropped"`

	Solves        int64   `json:"solves"`
	Portfolio     int64   `json:"portfolio_requests"`
	QueueWaitSec  float64 `json:"queue_wait_sec_total"`
	SolveSec      float64 `json:"solve_sec_total"`
	RunningSolves int     `json:"running_solves"`
	QueuedJobs    int     `json:"queued_requests"`
	Draining      bool    `json:"draining"`

	SolverNodes  int64 `json:"solver_nodes"`
	SimplexIters int64 `json:"solver_simplex_iters"`
	Incumbents   int64 `json:"solver_incumbents"`

	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`

	// The request memo in front of the plan cache: byte-identical request
	// bodies that skipped decoding and canonicalization, and what it holds.
	RequestMemoHits      int64 `json:"request_memo_hits"`
	RequestMemoMisses    int64 `json:"request_memo_misses"`
	RequestMemoEvictions int64 `json:"request_memo_evictions"`
	RequestMemoBytes     int64 `json:"request_memo_bytes"`

	// Plan answers by how their body was produced: written from the bytes
	// an earlier hit of the same request text rendered, or rendered in full.
	// Hits ÷ (hits + renders) is the share of answers that skipped encoding.
	ResponseTemplateHits    int64 `json:"response_template_hits"`
	ResponseTemplateRenders int64 `json:"response_template_renders"`

	Cache cache.Stats `json:"cache"`
	// Cluster is present only on clustered servers.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// Snapshot captures the current counters.
func (s *Server) Snapshot() Snapshot {
	running, queued := s.adm.load()
	var cl *cluster.Stats
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		cl = &cs
	}
	memo := s.memo.Stats()
	return Snapshot{
		Requests:      s.ctr.requests.Load(),
		OK:            s.ctr.ok.Load(),
		Degraded:      s.ctr.degraded.Load(),
		Shed:          s.ctr.shed.Load(),
		Rejected:      s.ctr.rejected.Load(),
		RateLimited:   s.ctr.rateLimited.Load(),
		BadRequest:    s.ctr.badRequest.Load(),
		Canceled:      s.ctr.canceled.Load(),
		Timeouts:      s.ctr.timeouts.Load(),
		Failed:        s.ctr.failed.Load(),
		DrainReject:   s.ctr.drainReject.Load(),
		Streams:       s.ctr.streams.Load(),
		EventsRelayed: s.ctr.eventsSent.Load(),
		EventsDropped: s.ctr.eventsDrop.Load(),
		Solves:        s.ctr.solves.Load(),
		Portfolio:     s.ctr.portfolio.Load(),
		QueueWaitSec:  time.Duration(s.ctr.queueNanos.Load()).Seconds(),
		SolveSec:      time.Duration(s.ctr.solveNanos.Load()).Seconds(),
		RunningSolves: running,
		QueuedJobs:    queued,
		Draining:      s.draining.Load(),
		SolverNodes:   s.ctr.solverNodes.Load(),
		SimplexIters:  s.ctr.simplexIters.Load(),
		Incumbents:    s.ctr.incumbents.Load(),
		Batches:       s.ctr.batches.Load(),
		BatchItems:    s.ctr.batchItems.Load(),

		RequestMemoHits:      memo.Hits,
		RequestMemoMisses:    memo.Misses,
		RequestMemoEvictions: memo.Evictions,
		RequestMemoBytes:     memo.Bytes,

		ResponseTemplateHits:    s.ctr.keptHits.Load(),
		ResponseTemplateRenders: s.ctr.renders.Load(),

		Cache:   s.co.Stats(),
		Cluster: cl,
	}
}

// handleVarz serves GET /varz through the process-wide expvar registry —
// the same document /debug/vars would show — including the "joinoptd"
// var this package publishes for all live servers.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	expvar.Handler().ServeHTTP(w, r)
}

// handleMetrics serves GET /metrics in Prometheus text exposition format,
// built from the same snapshot as /varz.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP joinoptd_responses_total Optimize responses by outcome.\n# TYPE joinoptd_responses_total counter\n")
	for _, o := range []struct {
		label string
		v     int64
	}{
		{"ok", snap.OK - snap.Degraded},
		{"degraded", snap.Degraded},
		{"rejected", snap.Rejected},
		{"rate_limited", snap.RateLimited},
		{"bad_request", snap.BadRequest},
		{"canceled", snap.Canceled},
		{"timeout", snap.Timeouts},
		{"failed", snap.Failed},
		{"draining", snap.DrainReject},
	} {
		fmt.Fprintf(w, "joinoptd_responses_total{outcome=%q} %d\n", o.label, o.v)
	}
	counter("joinoptd_requests_total", "Optimize requests received.", snap.Requests)
	counter("joinoptd_shed_total", "Requests shed by the saturated admission queue (answered degraded).", snap.Shed)
	counter("joinoptd_solves_total", "Solves dispatched to a worker.", snap.Solves)
	counter("joinoptd_portfolio_requests_total", "strategy=auto requests admitted with portfolio weight.", snap.Portfolio)
	counter("joinoptd_sse_streams_total", "Streaming optimize requests.", snap.Streams)
	counter("joinoptd_sse_events_relayed_total", "Solver events relayed to SSE clients.", snap.EventsRelayed)
	counter("joinoptd_sse_events_dropped_total", "Solver events dropped on slow SSE clients.", snap.EventsDropped)
	gauge("joinoptd_queue_wait_seconds_total", "Total admission-queue wait.", snap.QueueWaitSec)
	gauge("joinoptd_solve_seconds_total", "Total in-solve wall time.", snap.SolveSec)
	gauge("joinoptd_running_solves", "Solves currently holding a worker.", float64(snap.RunningSolves))
	gauge("joinoptd_queued_requests", "Requests waiting in the admission queue.", float64(snap.QueuedJobs))
	gauge("joinoptd_draining", "1 while the server drains.", boolGauge(snap.Draining))
	counter("joinoptd_solver_nodes_total", "Branch-and-bound nodes explored, summed over solves.", snap.SolverNodes)
	counter("joinoptd_solver_simplex_iters_total", "Simplex iterations, summed over solves.", snap.SimplexIters)
	counter("joinoptd_solver_incumbents_total", "Incumbent improvements, summed over solves.", snap.Incumbents)

	counter("joinoptd_request_memo_hits_total", "Request bodies found in the request memo (decode and canonicalization skipped).", snap.RequestMemoHits)
	counter("joinoptd_request_memo_misses_total", "Request bodies not found in the request memo.", snap.RequestMemoMisses)
	counter("joinoptd_request_memo_evictions_total", "Request memo entries evicted by its entry or byte bound.", snap.RequestMemoEvictions)
	gauge("joinoptd_request_memo_bytes", "Approximate resident bytes of the request memo.", float64(snap.RequestMemoBytes))
	counter("joinoptd_response_template_hits_total", "Plan answers written from the bytes an earlier hit of the same request text rendered.", snap.ResponseTemplateHits)
	counter("joinoptd_response_template_renders_total", "Plan answers rendered in full.", snap.ResponseTemplateRenders)

	counter("joinoptd_cache_hits_total", "Requests served from the exact plan cache.", snap.Cache.Hits)
	counter("joinoptd_cache_misses_total", "Requests that fell through to a solve.", snap.Cache.Misses)
	counter("joinoptd_cache_coalesced_total", "Requests that joined an identical in-flight solve.", snap.Cache.Coalesced)
	counter("joinoptd_cache_warm_starts_total", "Misses warm-started from a shape-matched cached plan.", snap.Cache.WarmStarts)
	counter("joinoptd_cache_warm_start_accepted_total", "Warm starts the solver used as its MIP start.", snap.Cache.WarmStartAccepted)
	counter("joinoptd_cache_degraded_total", "Tight-deadline requests served a fallback plan.", snap.Cache.Degraded)
	counter("joinoptd_cache_refines_total", "Background refine solves completed.", snap.Cache.Refines)
	counter("joinoptd_cache_uncacheable_total", "Requests the fingerprint rejects, solved without the cache.", snap.Cache.Uncacheable)
	counter("joinoptd_cache_canonicalizations_total", "Query fingerprints computed by the plan cache.", snap.Cache.Canonicalizations)
	counter("joinoptd_cache_evicted_total", "Entries evicted by the LRU bound.", snap.Cache.Evicted)
	counter("joinoptd_cache_expired_total", "Entries expired by TTL.", snap.Cache.Expired)
	counter("joinoptd_cache_replayed_total", "Entries loaded from the persistent log at startup.", snap.Cache.Replayed)
	counter("joinoptd_cache_replay_evicted_total", "Replayed entries evicted again by the LRU bounds during startup.", snap.Cache.ReplayEvicted)
	counter("joinoptd_cache_imported_total", "Entries accepted from cluster peers.", snap.Cache.Imported)
	counter("joinoptd_cache_invalidated_total", "Entries removed by explicit invalidation.", snap.Cache.Invalidated)
	counter("joinoptd_cache_feedback_refreshes_total", "Corrected-cardinality feedback refreshes.", snap.Cache.FeedbackRefreshes)
	counter("joinoptd_cache_persist_errors_total", "Failed persistent-log writes.", snap.Cache.PersistErrors)
	gauge("joinoptd_cache_entries", "Exact cache entries resident.", float64(snap.Cache.Entries))
	gauge("joinoptd_cache_donors", "Warm-start donor entries resident.", float64(snap.Cache.Donors))
	gauge("joinoptd_cache_bytes", "Approximate resident bytes of the exact cache.", float64(snap.Cache.Bytes))
	gauge("joinoptd_cache_hit_rate", "Hits over cacheable lookups.", snap.Cache.HitRate())

	counter("joinoptd_batches_total", "Batch optimize requests received.", snap.Batches)
	counter("joinoptd_batch_items_total", "Individual queries across all batches.", snap.BatchItems)

	if cl := snap.Cluster; cl != nil {
		gauge("joinoptd_cluster_peers", "Configured cluster membership size.", float64(cl.Peers))
		gauge("joinoptd_cluster_peers_up", "Peers currently passing health probes.", float64(cl.PeersUp))
		counter("joinoptd_cluster_routed_local_total", "Requests served by this shard.", cl.RoutedLocal)
		counter("joinoptd_cluster_replica_hits_total", "Requests another node owns answered here from this node's copy of the entry.", cl.ReplicaHits)
		counter("joinoptd_cluster_forwards_total", "Requests forwarded to their owning peer.", cl.Forwards)
		counter("joinoptd_cluster_forward_errors_total", "Forwards that failed open to a local solve.", cl.ForwardErrors)
		counter("joinoptd_cluster_replicated_total", "Cache entry copies shipped to peers.", cl.Replicated)
		counter("joinoptd_cluster_replicate_errors_total", "Failed replication posts.", cl.ReplicateErrors)
		counter("joinoptd_cluster_replicate_dropped_total", "Replication entries dropped on a full queue.", cl.ReplicateDropped)
		counter("joinoptd_cluster_probe_fails_total", "Failed peer health probes.", cl.ProbeFails)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// The expvar bridge: one process-wide "joinoptd" var aggregating every
// live Server (expvar.Publish panics on duplicates, so servers register
// into a shared map instead of publishing individually — httptest servers
// in the same process coexist).
var (
	varzOnce    sync.Once
	varzMu      sync.Mutex
	varzNextID  int
	varzServers = map[*Server]string{}
)

func registerVarz(s *Server) {
	varzOnce.Do(func() {
		expvar.Publish("joinoptd", expvar.Func(varzValue))
	})
	varzMu.Lock()
	defer varzMu.Unlock()
	varzNextID++
	varzServers[s] = fmt.Sprintf("server%d", varzNextID)
}

func unregisterVarz(s *Server) {
	varzMu.Lock()
	defer varzMu.Unlock()
	delete(varzServers, s)
}

// varzValue renders the registered servers: one snapshot when a single
// server is live (the production case), a name→snapshot map otherwise.
func varzValue() any {
	varzMu.Lock()
	type entry struct {
		name string
		srv  *Server
	}
	entries := make([]entry, 0, len(varzServers))
	for srv, name := range varzServers {
		entries = append(entries, entry{name, srv})
	}
	varzMu.Unlock()
	if len(entries) == 1 {
		return entries[0].srv.Snapshot()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make(map[string]Snapshot, len(entries))
	for _, e := range entries {
		out[e.name] = e.srv.Snapshot()
	}
	return out
}
