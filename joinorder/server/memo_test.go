package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"milpjoin/internal/workload"
	"milpjoin/joinorder/cache"
)

// post drives one body through the handler in-process.
func post(s *Server, path string, body []byte, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func errorCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env ErrorEnvelope
	decodeInto(t, rec.Body.Bytes(), &env)
	return env.Err.Code
}

// TestMemoSharedAcrossTenants posts one body from 64 goroutines under 64
// tenants, twice each. What the memo shares (query, options) must never be
// written — the race detector watches, and the shared value is compared
// with a copy taken beforehand — while what is per-request stays so: every
// tenant is billed to its own bucket, and the second request of each is
// refused with 429 although its body is a memo hit.
func TestMemoSharedAcrossTenants(t *testing.T) {
	const tenants = 64
	s := mustServer(t, Config{MaxWorkers: 8, QueueDepth: 2 * tenants, TenantRate: 0.001, TenantBurst: 1})
	body := queryBody(t, workload.Star, 6, 1, func(r *OptimizeRequest) {
		r.Strategy = "auto"
		r.Portfolio = []string{"greedy", "dp-leftdeep"}
	})
	if rec := post(s, "/v1/optimize", body, "X-Tenant", "first"); rec.Code != http.StatusOK {
		t.Fatalf("first sight: %d %s", rec.Code, rec.Body)
	}
	shared, ok := s.memo.Get(body)
	if !ok {
		t.Fatal("a served body is not in the memo")
	}
	queryBefore, _ := json.Marshal(shared.q)
	portfolioBefore := slices.Clone(shared.opts.Portfolio)
	permBefore := slices.Clone(shared.canon.Perm)
	memoBefore := s.Snapshot().RequestMemoHits

	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			if rec := post(s, "/v1/optimize", body, "X-Tenant", tenant); rec.Code != http.StatusOK {
				t.Errorf("%s, first request: %d %s", tenant, rec.Code, rec.Body)
			}
			rec := post(s, "/v1/optimize", body, "X-Tenant", tenant)
			if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), CodeRateLimited) {
				t.Errorf("%s, second request: %d %s, want 429 rate_limited", tenant, rec.Code, rec.Body)
			}
		}(fmt.Sprintf("t%d", i))
	}
	wg.Wait()

	snap := s.Snapshot()
	if snap.OK != tenants+1 || snap.RateLimited != tenants || snap.Portfolio != tenants+1 {
		t.Errorf("ok=%d rate_limited=%d portfolio=%d, want %d/%d/%d", snap.OK, snap.RateLimited, snap.Portfolio, tenants+1, tenants, tenants+1)
	}
	if hits := snap.RequestMemoHits - memoBefore; hits != 2*tenants {
		t.Errorf("request_memo_hits grew by %d, want %d", hits, 2*tenants)
	}
	queryAfter, _ := json.Marshal(shared.q)
	if !bytes.Equal(queryBefore, queryAfter) || !slices.Equal(portfolioBefore, shared.opts.Portfolio) || !slices.Equal(permBefore, shared.canon.Perm) {
		t.Error("a request wrote to the resolved form it shares with the memo")
	}
}

// TestMemoHitStillDrains: the drain flag is checked before the memo.
func TestMemoHitStillDrains(t *testing.T) {
	s := mustServer(t, Config{})
	body := queryBody(t, workload.Chain, 5, 1, nil)
	if rec := post(s, "/v1/optimize", body); rec.Code != http.StatusOK {
		t.Fatalf("first sight: %d %s", rec.Code, rec.Body)
	}
	s.BeginDrain()
	rec := post(s, "/v1/optimize", body)
	if rec.Code != http.StatusServiceUnavailable || errorCode(t, rec) != CodeDraining {
		t.Errorf("memoized body while draining: %d %s, want 503 draining", rec.Code, rec.Body)
	}
	if hits := s.Snapshot().RequestMemoHits; hits != 0 {
		t.Errorf("request_memo_hits = %d: a draining server consulted the memo", hits)
	}
}

// TestMemoKeysOnBytesCacheOnStructure: two bodies that differ only in
// whitespace are two request texts and one plan.
func TestMemoKeysOnBytesCacheOnStructure(t *testing.T) {
	s := mustServer(t, Config{})
	body := queryBody(t, workload.Chain, 6, 1, func(r *OptimizeRequest) { r.Strategy = "dp-leftdeep" })
	spaced := append([]byte(" "), body...)
	var answers []string
	for _, b := range [][]byte{body, spaced, body, spaced} {
		rec := post(s, "/v1/optimize", b)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d %s", rec.Code, rec.Body)
		}
		answers = append(answers, timeless(t, rec.Body.Bytes()))
	}
	// The first answer is the solve, the second the cache's translation of
	// it (a different status line, the same plan); from then on, bytes and
	// structure both repeat.
	if answers[2] != answers[1] || answers[3] != answers[1] {
		t.Errorf("repeats differ:\n%s\n%s\n%s", answers[1], answers[2], answers[3])
	}
	snap := s.Snapshot()
	if memo := s.memo.Stats(); memo.Entries != 2 || memo.Hits != 2 || memo.Misses != 2 {
		t.Errorf("memo entries=%d hits=%d misses=%d, want 2/2/2", memo.Entries, memo.Hits, memo.Misses)
	}
	if snap.Cache.Entries != 1 || snap.Cache.Misses != 1 || snap.Cache.Hits != 3 {
		t.Errorf("plan cache entries=%d misses=%d hits=%d, want 1/1/3", snap.Cache.Entries, snap.Cache.Misses, snap.Cache.Hits)
	}
}

// TestMemoHoldsOnlyAcceptedBodies: a body the gate rejects is never
// memoized, whatever stage rejected it, and neither is one over the size
// limit, though it is answered.
func TestMemoHoldsOnlyAcceptedBodies(t *testing.T) {
	s := mustServer(t, Config{TenantRate: 0.001, TenantBurst: 1})
	valid := queryBody(t, workload.Chain, 5, 1, nil)
	s.tb.allow("spent", s.cfg.now())
	for _, tc := range []struct {
		name   string
		body   []byte
		tenant string
		status int
	}{
		{"malformed", []byte(`{"query":`), "a", http.StatusBadRequest},
		{"invalid options", queryBody(t, workload.Chain, 5, 1, func(r *OptimizeRequest) { r.Precision = "ultra" }), "b", http.StatusBadRequest},
		{"invalid query", []byte(`{"query":{"tables":[{"name":"A","card":0},{"name":"B","card":5}],"predicates":[]}}`), "c", http.StatusBadRequest},
		{"rate-limited", valid, "spent", http.StatusTooManyRequests},
		{"over 64 KiB", append(valid, bytes.Repeat([]byte(" "), maxMemoBody)...), "d", http.StatusOK},
	} {
		for pass := 0; pass < 2; pass++ {
			tenant := tc.tenant
			if tenant != "spent" { // one request is all a tenant's bucket holds
				tenant = fmt.Sprintf("%s%d", tenant, pass)
			}
			if rec := post(s, "/v1/optimize", tc.body, "X-Tenant", tenant); rec.Code != tc.status {
				t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
			}
		}
		if memo := s.memo.Stats(); memo.Entries != 0 || memo.Hits != 0 {
			t.Errorf("%s: memo entries=%d hits=%d, want 0/0", tc.name, memo.Entries, memo.Hits)
		}
	}
}

// TestMemoBounds sweeps ten times the memo's capacity in distinct bodies
// through servers bounded by entries and by bytes.
func TestMemoBounds(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cc         cache.Config
		maxEntries int
		maxBytes   int64
	}{
		{"entries", cache.Config{MaxEntries: 4}, 4 * memoTextsPerPlan, 4 * memoTextsPerPlan * memoBytesPerEntry},
		{"bytes", cache.Config{MaxEntries: 64, MaxBytes: 32 << 10}, 64 * memoTextsPerPlan, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustServer(t, Config{Cache: tc.cc})
			peakEntries, peakBytes := 0, int64(0)
			for i := 0; i < 10*tc.maxEntries; i++ {
				if rec := post(s, "/v1/optimize", queryBody(t, workload.Chain, 4+i%5, int64(i), nil)); rec.Code != http.StatusOK {
					t.Fatalf("body %d: %d %s", i, rec.Code, rec.Body)
				}
				memo := s.memo.Stats()
				peakEntries, peakBytes = max(peakEntries, memo.Entries), max(peakBytes, memo.Bytes)
			}
			memo := s.memo.Stats()
			if peakEntries > tc.maxEntries || peakBytes > tc.maxBytes {
				t.Errorf("peak %d entries, %d bytes; bounds %d, %d", peakEntries, peakBytes, tc.maxEntries, tc.maxBytes)
			}
			if memo.Evictions == 0 || int(memo.Evictions)+memo.Entries != 10*tc.maxEntries {
				t.Errorf("%d evictions + %d resident != %d inserted", memo.Evictions, memo.Entries, 10*tc.maxEntries)
			}
			if tc.name == "bytes" && memo.Entries >= tc.maxEntries/2 {
				t.Errorf("%d entries resident: the byte bound did not bind", memo.Entries)
			}
		})
	}
}

// TestMemoSharedWithStream: both single-request endpoints go through
// gateHTTP, so a body seen on one is a memo hit on the other.
func TestMemoSharedWithStream(t *testing.T) {
	for _, order := range [][2]string{{"/v1/optimize", "/v1/optimize/stream"}, {"/v1/optimize/stream", "/v1/optimize"}} {
		s := mustServer(t, Config{})
		body := queryBody(t, workload.Cycle, 5, 1, nil)
		for i, path := range order {
			rec := post(s, path, body)
			if rec.Code != http.StatusOK || (strings.HasSuffix(path, "stream") && !strings.Contains(rec.Body.String(), "event: result")) {
				t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
			}
			if hits := s.Snapshot().RequestMemoHits; hits != int64(i) {
				t.Errorf("after %v: request_memo_hits = %d, want %d", order[:i+1], hits, i)
			}
		}
	}
}

// TestClusterCanonicalizesOnce: a request is fingerprinted once on every
// node that sees its text for the first time — the gate's canonical form
// routes it, keys the residency probe and rides into the cache — and not
// at all when its bytes are in the memo. (Before the memo a locally-owned
// request was fingerprinted twice, a forwarded one three times.)
func TestClusterCanonicalizesOnce(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	var body []byte
	for seed := int64(1); ; seed++ {
		q, b := clusterQuery(t, seed)
		if tc.owner(t, q).ID == tc.peers[0].ID {
			body = b
			break
		}
	}
	canonicalizations := func() (n int64) {
		for _, s := range tc.servers {
			n += s.Snapshot().Cache.Canonicalizations
		}
		return n
	}
	step := func(name string, node int, body []byte, want int64, wantBy string) {
		t.Helper()
		before := canonicalizations()
		resp, err := http.Post(tc.https[node].URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if by := resp.Header.Get(NodeHeader); resp.StatusCode != http.StatusOK || by != wantBy {
			t.Fatalf("%s: status %d from %q, want 200 from %q", name, resp.StatusCode, by, wantBy)
		}
		if got := canonicalizations() - before; got != want {
			t.Errorf("%s: %d canonicalizations, want %d", name, got, want)
		}
	}
	owner, other := tc.peers[0].ID, tc.peers[1].ID
	spaced := append([]byte(" "), body...)
	// dp-leftdeep reads no MIP start, so the solve adds no Shape
	// canonicalization for the donor index.
	step("forwarded miss, new text at both nodes", 1, body, 2, owner)
	step("owner, memo hit (the forwarded bytes)", 0, body, 0, owner)
	step("owner, new text, plan hit", 0, spaced, 1, owner)
	// Once replication has landed the non-owner answers from its copy; the
	// probe and the lookup share the key its gate computed.
	tc.flush(t)
	step("replica read, memo hit", 1, body, 0, other)
	step("replica read, new text", 1, spaced, 1, other)
}
