package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
)

// testLogger logs into the test output, keeping `go test` output clean on
// success.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// queryBody builds an optimize request body for a generated query.
func queryBody(t testing.TB, shape workload.GraphShape, tables int, seed int64, mutate func(*OptimizeRequest)) []byte {
	t.Helper()
	req := &OptimizeRequest{
		Query:    workload.Generate(shape, tables, seed, workload.Config{}),
		Strategy: "greedy",
		Timeout:  "2s",
	}
	if mutate != nil {
		mutate(req)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postOptimize(t testing.TB, ts *httptest.Server, body []byte) (*http.Response, *OptimizeResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &out
}

func TestOptimizeEndpoint(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, out := postOptimize(t, ts, queryBody(t, workload.Chain, 8, 1, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Result == nil || out.Result.Plan == nil || len(out.Result.Plan.Order) != 8 {
		t.Fatalf("response carries no 8-table plan: %+v", out.Result)
	}
	if out.Degraded || out.CacheHit {
		t.Fatalf("fresh greedy solve flagged degraded=%v cache_hit=%v", out.Degraded, out.CacheHit)
	}

	// The identical query again is a cache hit only for proven-optimal
	// results; greedy is not cached, so run an exact-DP request twice.
	exact := queryBody(t, workload.Chain, 8, 1, func(r *OptimizeRequest) { r.Strategy = "dp-leftdeep"; r.Timeout = "10s" })
	if _, out = postOptimize(t, ts, exact); out == nil || out.CacheHit {
		t.Fatalf("first dp request: %+v", out)
	}
	if _, out = postOptimize(t, ts, exact); out == nil || !out.CacheHit {
		t.Fatalf("second dp request should hit the cache: %+v", out)
	}
	if snap := s.Snapshot(); snap.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want ≥ 1", snap.Cache.Hits)
	}
}

func TestOptimizeSQLRequest(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"sql": "SELECT * FROM orders o, customers c, items i WHERE o.cust_id = c.id AND o.item_id = i.id",
		"catalog": map[string]any{
			"orders":    map[string]any{"Card": 100000, "Columns": map[string]any{"id": map[string]any{"Distinct": 100000}, "cust_id": map[string]any{"Distinct": 5000}, "item_id": map[string]any{"Distinct": 2000}}},
			"customers": map[string]any{"Card": 5000, "Columns": map[string]any{"id": map[string]any{"Distinct": 5000}}},
			"items":     map[string]any{"Card": 2000, "Columns": map[string]any{"id": map[string]any{"Distinct": 2000}}},
		},
		"strategy": "dp-leftdeep",
		"timeout":  "5s",
	})
	resp, out := postOptimize(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	if out.Result == nil || out.Result.Plan == nil || len(out.Result.Plan.Order) != 3 {
		t.Fatalf("no 3-table plan: %+v", out.Result)
	}
	// A join-only SQL query is fingerprinted like any other: the repeats
	// are cache hits.
	for i := 0; i < 2; i++ {
		if _, again := postOptimize(t, ts, body); again == nil || !again.CacheHit {
			t.Errorf("repeat %d: not a cache hit: %+v", i+1, again)
		}
	}
	if n := s.Cache().Stats().Uncacheable; n != 0 {
		t.Errorf("%d uncacheable requests, want 0", n)
	}
}

func TestBadRequests(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, body := range map[string]string{
		"invalid json":     "{nope",
		"no query":         `{"strategy":"milp"}`,
		"both sources":     `{"sql":"SELECT 1","query":{"tables":[]}}`,
		"sql sans catalog": `{"sql":"SELECT * FROM a, b WHERE a.x = b.y"}`,
		"bad precision":    `{"query":{"tables":[{"name":"a","card":10},{"name":"b","card":10}],"predicates":[{"name":"p","tables":[0,1],"sel":0.1}]},"precision":"ultra"}`,
		"bad timeout":      `{"query":{"tables":[{"name":"a","card":10},{"name":"b","card":10}],"predicates":[{"name":"p","tables":[0,1],"sel":0.1}]},"timeout":"-3s"}`,
		"unknown strategy": `{"query":{"tables":[{"name":"a","card":10},{"name":"b","card":10}],"predicates":[{"name":"p","tables":[0,1],"sel":0.1}]},"strategy":"quantum"}`,
		"invalid query":    `{"query":{"tables":[{"name":"a","card":10}],"predicates":[]}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, b)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Errorf("%s: error body not an envelope: %v", name, err)
		} else if env.Err.Code != CodeBadRequest || env.Err.Message == "" {
			t.Errorf("%s: envelope = %+v, want code %q and a message", name, env.Err, CodeBadRequest)
		}
		resp.Body.Close()
	}
	if snap := s.Snapshot(); snap.BadRequest < 8 {
		t.Errorf("bad_request counter = %d, want ≥ 8", snap.BadRequest)
	}
}

func TestTenantRateLimit(t *testing.T) {
	s := mustServer(t, Config{TenantRate: 0.001, TenantBurst: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := queryBody(t, workload.Chain, 6, 1, nil)
	req := func() *http.Response {
		hr, _ := http.NewRequest("POST", ts.URL+"/v1/optimize", bytes.NewReader(body))
		hr.Header.Set("X-Tenant", "acme")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := req(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	resp := req()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Errorf("429 body not an envelope: %v", err)
	} else if env.Err.Code != CodeRateLimited || env.Err.RetryAfterMillis <= 0 {
		t.Errorf("429 envelope = %+v, want code %q with a retry hint", env.Err, CodeRateLimited)
	}
	// A different tenant is unaffected.
	hr, _ := http.NewRequest("POST", ts.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", "globex")
	r2, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d", r2.StatusCode)
	}
}

// blockingOptimizer is a fake underlying optimizer: milp-strategy solves
// block until released (or their context ends); the fallback strategy
// answers immediately — the shape of a saturated server.
type blockingOptimizer struct {
	release   chan struct{}
	started   chan struct{} // buffered; one tick per blocked solve
	calls     atomic.Int64  // blocked (non-fallback) solves begun
	ctxErrs   atomic.Int64  // blocked solves ended by their context
	firstStop sync.Once
}

func newBlockingOptimizer() *blockingOptimizer {
	return &blockingOptimizer{release: make(chan struct{}), started: make(chan struct{}, 1024)}
}

func fakePlan(n int) *joinorder.Plan {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return &joinorder.Plan{Order: order}
}

func (b *blockingOptimizer) fn(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
	if opts.Strategy == "greedy" {
		return &joinorder.Result{
			Strategy: "greedy", Status: joinorder.StatusFeasible,
			Plan: fakePlan(q.NumTables()), Cost: 1000,
		}, nil
	}
	b.calls.Add(1)
	b.started <- struct{}{}
	select {
	case <-b.release:
		return &joinorder.Result{
			Strategy: "milp", Status: joinorder.StatusFeasible,
			Plan: fakePlan(q.NumTables()), Cost: 100, Bound: 90, Gap: 0.1,
		}, nil
	case <-ctx.Done():
		b.ctxErrs.Add(1)
		return nil, fmt.Errorf("%w: %w", joinorder.ErrCanceled, ctx.Err())
	}
}

func TestShedDegradedAndRejected(t *testing.T) {
	bo := newBlockingOptimizer()
	s := mustServer(t, Config{
		MaxWorkers: 1,
		QueueDepth: 1,
		Cache: cache.Config{
			Optimize:         bo.fn,
			DegradeUnder:     50 * time.Millisecond,
			BackgroundBudget: 500 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Fill the one worker; the solve blocks.
	errc := make(chan error, 2)
	go func() {
		_, err := http.Post(ts.URL+"/v1/optimize", "application/json",
			bytes.NewReader(queryBody(t, workload.Chain, 6, 1, func(r *OptimizeRequest) { r.Strategy = "milp" })))
		errc <- err
	}()
	<-bo.started

	// Fill the one queue slot (distinct query so it cannot coalesce).
	go func() {
		_, err := http.Post(ts.URL+"/v1/optimize", "application/json",
			bytes.NewReader(queryBody(t, workload.Chain, 7, 2, func(r *OptimizeRequest) { r.Strategy = "milp" })))
		errc <- err
	}()
	waitFor(t, func() bool { _, queued := s.adm.load(); return queued == 1 })

	// Saturated: the next request is shed and answered degraded.
	resp, out := postOptimize(t, ts, queryBody(t, workload.Star, 8, 3, func(r *OptimizeRequest) { r.Strategy = "milp" }))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shed request status = %d, want degraded 200", resp.StatusCode)
	}
	if out == nil || !out.Degraded || out.Result == nil || out.Result.Plan == nil {
		t.Fatalf("shed response not a degraded plan: %+v", out)
	}
	if out.Result.Strategy != "greedy" {
		t.Errorf("degraded strategy = %q, want fallback greedy", out.Result.Strategy)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded response without Retry-After")
	}

	// A request refusing degradation gets 429 + Retry-After instead.
	resp2, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader(queryBody(t, workload.Star, 9, 4, func(r *OptimizeRequest) {
			r.Strategy = "milp"
			no := false
			r.AllowDegraded = &no
		})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("strict shed status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(bo.release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if snap := s.Snapshot(); snap.Shed != 1 || snap.Rejected != 1 {
		t.Errorf("shed=%d rejected=%d, want 1/1", snap.Shed, snap.Rejected)
	}
	// Drain to let the degraded path's background refine finish.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClientDisconnectCancelsSolveAndFreesSlot(t *testing.T) {
	bo := newBlockingOptimizer()
	s := mustServer(t, Config{
		MaxWorkers: 1,
		Cache:      cache.Config{Optimize: bo.fn, BackgroundBudget: 500 * time.Millisecond},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize",
		bytes.NewReader(queryBody(t, workload.Chain, 6, 1, func(r *OptimizeRequest) { r.Strategy = "milp" })))
	done := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		done <- err
	}()
	<-bo.started
	cancel() // client walks away mid-solve

	if err := <-done; err == nil {
		t.Fatal("canceled request returned no error to the client")
	}
	// The solve must observe the cancellation and the worker slot must
	// free for the next request.
	waitFor(t, func() bool { return bo.ctxErrs.Load() == 1 })
	waitFor(t, func() bool { running, _ := s.adm.load(); return running == 0 })
	if snap := s.Snapshot(); snap.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", snap.Canceled)
	}

	// The pool is healthy: a fresh request solves normally.
	close(bo.release)
	resp, out := postOptimize(t, ts, queryBody(t, workload.Chain, 7, 2, func(r *OptimizeRequest) { r.Strategy = "milp" }))
	if resp.StatusCode != http.StatusOK || out.Result == nil {
		t.Fatalf("post-cancel request failed: %d %+v", resp.StatusCode, out)
	}
}

func TestCoalescedIdenticalQueriesSolveOnce(t *testing.T) {
	bo := newBlockingOptimizer()
	s := mustServer(t, Config{
		MaxWorkers: 8,
		Cache:      cache.Config{Optimize: bo.fn},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 6
	body := queryBody(t, workload.Star, 10, 7, func(r *OptimizeRequest) { r.Strategy = "milp"; r.Timeout = "30s" })
	results := make(chan *OptimizeResponse, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- nil
				return
			}
			defer resp.Body.Close()
			var out OptimizeResponse
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
				results <- nil
				return
			}
			results <- &out
		}()
	}
	// All n requests hold worker slots: one solving leader, n−1 waiting
	// on its flight.
	waitFor(t, func() bool { running, _ := s.adm.load(); return running == n })
	close(bo.release)

	coalesced := 0
	for i := 0; i < n; i++ {
		out := <-results
		if out == nil || out.Result == nil || out.Result.Plan == nil {
			t.Fatal("a coalesced request failed")
		}
		if out.Coalesced {
			coalesced++
		}
	}
	if got := bo.calls.Load(); got != 1 {
		t.Fatalf("underlying solves = %d, want exactly 1", got)
	}
	if coalesced != n-1 {
		t.Errorf("coalesced responses = %d, want %d", coalesced, n-1)
	}
}

func TestDrainLifecycle(t *testing.T) {
	bo := newBlockingOptimizer()
	s := mustServer(t, Config{MaxWorkers: 2, Cache: cache.Config{Optimize: bo.fn}})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One solve in flight when the drain begins.
	inflight := make(chan *OptimizeResponse, 1)
	go func() {
		_, out := postOptimize(t, ts, queryBody(t, workload.Chain, 6, 1, func(r *OptimizeRequest) { r.Strategy = "milp" }))
		inflight <- out
	}()
	<-bo.started

	s.BeginDrain()

	// New work is refused with 503 + Retry-After; healthz flips.
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader(queryBody(t, workload.Chain, 7, 2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining optimize: status=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", hz.StatusCode)
	}

	// The in-flight solve completes and the drain finishes cleanly.
	close(bo.release)
	out := <-inflight
	if out == nil || out.Result == nil {
		t.Fatal("in-flight request did not complete during drain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestHealthzVarzMetrics(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, out := postOptimize(t, ts, queryBody(t, workload.Chain, 6, 1, nil)); out == nil {
		t.Fatal("warmup request failed")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("healthz body %q", body)
	}
	varz := get("/varz")
	if !strings.Contains(varz, `"joinoptd"`) || !strings.Contains(varz, `"requests"`) {
		t.Errorf("varz missing joinoptd snapshot: %.200s", varz)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"joinoptd_requests_total 1",
		`joinoptd_responses_total{outcome="ok"} 1`,
		"joinoptd_cache_misses_total 1",
		"joinoptd_response_template_hits_total 0",
		"joinoptd_response_template_renders_total 1",
		"# TYPE joinoptd_running_solves gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsExportEveryCacheStat walks cache.Stats's JSON tags: each one
// has a joinoptd_cache_<tag> line on /metrics.
func TestMetricsExportEveryCacheStat(t *testing.T) {
	s := mustServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	metrics := "\n" + rec.Body.String()
	typ := reflect.TypeOf(cache.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		name := "joinoptd_cache_" + tag
		if !strings.Contains(metrics, "\n"+name+" ") && !strings.Contains(metrics, "\n"+name+"_total ") {
			t.Errorf("/metrics has no %s line for cache.Stats.%s", name, typ.Field(i).Name)
		}
	}
}

func TestServerConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative workers":        {MaxWorkers: -1},
		"negative queue":          {QueueDepth: -1},
		"default above max":       {DefaultTimeLimit: 2 * time.Minute, MaxTimeLimit: time.Minute},
		"degrade above deadline":  {DefaultTimeLimit: 100 * time.Millisecond, Cache: cache.Config{DegradeUnder: 200 * time.Millisecond}},
		"negative tenant rate":    {TenantRate: -1},
		"bad cache (degrade≥bkg)": {Cache: cache.Config{DegradeUnder: time.Second, BackgroundBudget: time.Second}},
	} {
		if _, err := New(cfg); !errors.Is(err, joinorder.ErrInvalidOptions) {
			t.Errorf("%s: New err = %v, want ErrInvalidOptions", name, err)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestTenantBurstDefaultIsCeil: an unset TenantBurst is ceil(TenantRate),
// at least 1, as the doc and joinoptd -tenant-burst promise.
func TestTenantBurstDefaultIsCeil(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		burst int
	}{{0.001, 1}, {0.5, 1}, {1, 1}, {2.0005, 3}, {3, 3}} {
		if got := (Config{TenantRate: tc.rate}).withDefaults().TenantBurst; got != tc.burst {
			t.Errorf("TenantRate %g: TenantBurst %d, want %d", tc.rate, got, tc.burst)
		}
	}
}

// TestZeroDegradeUnderMeans150ms: the server always degrades — a request
// shed from a saturated queue is answered through the cache's degrade path
// — so a zero cache DegradeUnder resolves to 150ms, never to "off".
func TestZeroDegradeUnderMeans150ms(t *testing.T) {
	if got := (Config{}).withDefaults().Cache.DegradeUnder; got != 150*time.Millisecond {
		t.Errorf("Config{} resolves Cache.DegradeUnder to %v, want 150ms", got)
	}
}

// --- SSE ---

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func readSSE(t testing.TB, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	return out
}

// TestSSEStreamAnytimeGap is the acceptance check for the streaming
// endpoint: a 20-table star query streamed over SSE must show a
// monotonically non-increasing gap (equivalently, a non-decreasing proven
// bound and non-increasing incumbent) and finish with a result event.
func TestSSEStreamAnytimeGap(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The budget is generous because the race detector slows the solver
	// by an order of magnitude; several bound improvements must land.
	body := queryBody(t, workload.Star, 20, 42, func(r *OptimizeRequest) {
		r.Strategy = "milp"
		r.Timeout = "8s"
		r.Threads = 2
	})
	resp, err := http.Post(ts.URL+"/v1/optimize/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	events := readSSE(t, resp.Body)
	if len(events) < 3 {
		t.Fatalf("only %d SSE events", len(events))
	}
	type anytime struct {
		Incumbent    *float64 `json:"incumbent"`
		Bound        *float64 `json:"bound"`
		Gap          *float64 `json:"gap"`
		HasIncumbent bool     `json:"has_incumbent"`
	}
	var (
		lastGap       = float64(1e300)
		lastBound     = float64(-1e300)
		lastIncumbent = float64(1e300)
		anytimeEvents int
	)
	for _, ev := range events[:len(events)-1] {
		if ev.name != "incumbent" && ev.name != "bound" {
			continue
		}
		var a anytime
		if err := json.Unmarshal([]byte(ev.data), &a); err != nil {
			t.Fatalf("bad event payload %q: %v", ev.data, err)
		}
		anytimeEvents++
		const tol = 1e-9
		if a.Gap != nil {
			if *a.Gap > lastGap+tol {
				t.Fatalf("gap regressed: %g after %g", *a.Gap, lastGap)
			}
			lastGap = *a.Gap
		}
		if a.Bound != nil {
			if *a.Bound < lastBound-tol {
				t.Fatalf("bound regressed: %g after %g", *a.Bound, lastBound)
			}
			lastBound = *a.Bound
		}
		if a.HasIncumbent && a.Incumbent != nil {
			if *a.Incumbent > lastIncumbent+tol {
				t.Fatalf("incumbent worsened: %g after %g", *a.Incumbent, lastIncumbent)
			}
			lastIncumbent = *a.Incumbent
		}
	}
	if anytimeEvents < 2 {
		t.Fatalf("only %d incumbent/bound events on a 20-table star", anytimeEvents)
	}

	final := events[len(events)-1]
	if final.name != "result" {
		t.Fatalf("last event = %q, want result", final.name)
	}
	var out OptimizeResponse
	if err := json.Unmarshal([]byte(final.data), &out); err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Plan == nil || len(out.Result.Plan.Order) != 20 {
		t.Fatalf("final result carries no 20-table plan")
	}
	if out.Result.Gap > lastGap+1e-9 {
		t.Errorf("final gap %g above last streamed gap %g", out.Result.Gap, lastGap)
	}
}

func TestSSEDisconnectCancelsSolve(t *testing.T) {
	bo := newBlockingOptimizer()
	s := mustServer(t, Config{MaxWorkers: 1, Cache: cache.Config{Optimize: bo.fn}})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize/stream",
		bytes.NewReader(queryBody(t, workload.Chain, 6, 1, func(r *OptimizeRequest) { r.Strategy = "milp" })))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-bo.started
	cancel() // walk away mid-stream

	waitFor(t, func() bool { return bo.ctxErrs.Load() == 1 })
	waitFor(t, func() bool { running, _ := s.adm.load(); return running == 0 })
}

// TestOptimizeAutoPortfolio: a strategy=auto request races the portfolio
// on the server, answers with the winner's plan, and is accounted with
// portfolio weight in the admission pool.
func TestOptimizeAutoPortfolio(t *testing.T) {
	s := mustServer(t, Config{MaxWorkers: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := queryBody(t, workload.Star, 8, 3, func(r *OptimizeRequest) {
		r.Strategy = "auto"
		r.Portfolio = []string{"dp-bushy", "greedy"}
		r.Timeout = "10s"
	})
	resp, out := postOptimize(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	if out.Result == nil || out.Result.Strategy != "auto" {
		t.Fatalf("result strategy %+v, want auto", out.Result)
	}
	if out.Result.Winner != "dp-bushy" && out.Result.Winner != "greedy" {
		t.Fatalf("winner %q not a portfolio member", out.Result.Winner)
	}
	if out.Result.Status != joinorder.StatusOptimal {
		t.Errorf("status = %v, want optimal (dp-bushy finishes a star-8 exactly)", out.Result.Status)
	}
	if snap := s.Snapshot(); snap.Portfolio != 1 {
		t.Errorf("portfolio counter = %d, want 1", snap.Portfolio)
	}

	// A portfolio with a non-auto strategy is a 400, not a solve.
	bad := queryBody(t, workload.Star, 8, 3, func(r *OptimizeRequest) {
		r.Strategy = "greedy"
		r.Portfolio = []string{"milp"}
	})
	resp, _ = postOptimize(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("portfolio with non-auto strategy: status = %d, want 400", resp.StatusCode)
	}
}

// TestErrorEnvelopeUnmarshal: Go clients decode the structured envelope
// directly and can use it as an error.
func TestErrorEnvelopeUnmarshal(t *testing.T) {
	var env ErrorEnvelope
	structured := `{"error":{"code":"timeout","message":"no plan","retry_after_ms":1500}}`
	if err := json.Unmarshal([]byte(structured), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != CodeTimeout || env.Err.Message != "no plan" || env.Err.RetryAfterMillis != 1500 {
		t.Errorf("structured envelope = %+v", env.Err)
	}
	if got := env.Error(); got != "timeout: no plan" {
		t.Errorf("Error() = %q", got)
	}
}

// TestRequestBudgetObject: the budget object wins over the flat aliases
// field-by-field, and the resolved limits land in Options.Budget.
func TestRequestBudgetObject(t *testing.T) {
	cfg := Config{DefaultTimeLimit: 10 * time.Second, MaxTimeLimit: time.Minute}
	req := &OptimizeRequest{
		Budget:  &BudgetRequest{Timeout: "2s", MaxNodes: 500},
		Timeout: "9s", // loses to budget.timeout
		GapTol:  1e-3, // wins: budget.gap_tol unset
		Threads: 4,    // wins: budget.threads unset
	}
	opts, err := req.options(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := joinorder.Budget{TimeLimit: 2 * time.Second, GapTol: 1e-3, MaxNodes: 500, Threads: 4}
	if opts.Budget != want {
		t.Errorf("options().Budget = %+v, want %+v", opts.Budget, want)
	}
	// Budget timeouts are capped by the server config like flat ones.
	req = &OptimizeRequest{Budget: &BudgetRequest{Timeout: "5m"}}
	if opts, err = req.options(cfg); err != nil {
		t.Fatal(err)
	}
	if opts.Budget.TimeLimit != time.Minute {
		t.Errorf("budget timeout not capped: %v", opts.Budget.TimeLimit)
	}
	// A negative budget field is rejected by Options.Validate.
	req = &OptimizeRequest{Budget: &BudgetRequest{MaxNodes: -1}}
	if _, err = req.options(cfg); err == nil {
		t.Error("negative budget.max_nodes accepted")
	}
}

// TestFlatAndBudgetTimeoutAreOneRequest: the flat wire "timeout" (the
// spelling bench/serving.go sends) and "budget.timeout" resolve to the
// same options, so the second spelling is served from the first's cache
// entry with the same plan.
func TestFlatAndBudgetTimeoutAreOneRequest(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	flat := queryBody(t, workload.Chain, 8, 1, func(r *OptimizeRequest) { r.Strategy = "dp-leftdeep"; r.Timeout = "10s" })
	object := queryBody(t, workload.Chain, 8, 1, func(r *OptimizeRequest) {
		r.Strategy = "dp-leftdeep"
		r.Timeout = ""
		r.Budget = &BudgetRequest{Timeout: "10s"}
	})
	resp, first := postOptimize(t, ts, flat)
	if resp.StatusCode != http.StatusOK || first.CacheHit {
		t.Fatalf("flat timeout: status %d, response %+v", resp.StatusCode, first)
	}
	resp, second := postOptimize(t, ts, object)
	if resp.StatusCode != http.StatusOK || !second.CacheHit {
		t.Fatalf("budget.timeout: status %d, response %+v (want a hit on the flat request's entry)", resp.StatusCode, second)
	}
	if !reflect.DeepEqual(first.Result.Plan, second.Result.Plan) || first.Result.Cost != second.Result.Cost {
		t.Errorf("plans differ: %v (%g) vs %v (%g)", first.Result.Plan, first.Result.Cost, second.Result.Plan, second.Result.Cost)
	}
}

// TestOptimizeHybridRequest: the hybrid strategy plus its knobs round-trip
// through the wire format and answer a large query.
func TestOptimizeHybridRequest(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := queryBody(t, workload.Snowflake, 40, 1, func(r *OptimizeRequest) {
		r.Strategy = "hybrid"
		r.PartitionCap = 8
		r.SeamBudgetFrac = 0.3
		r.Budget = &BudgetRequest{Timeout: "5s"}
		r.Timeout = ""
	})
	resp, out := postOptimize(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Result == nil || out.Result.Plan == nil || len(out.Result.Plan.Order) != 40 {
		t.Fatalf("no 40-table plan: %+v", out.Result)
	}
	if out.Result.Strategy != "hybrid" {
		t.Errorf("strategy = %q", out.Result.Strategy)
	}
	// An out-of-range knob is a 400 with the envelope's code.
	bad := queryBody(t, workload.Chain, 6, 1, func(r *OptimizeRequest) {
		r.Strategy = "hybrid"
		r.PartitionCap = 1
	})
	hr, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Errorf("partition_cap=1 status = %d, want 400", hr.StatusCode)
	}
}
