package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cluster"
)

// postBatch ships a BatchRequest and decodes the BatchResponse.
func postBatch(t testing.TB, url string, breq BatchRequest, header http.Header) (*http.Response, *BatchResponse) {
	t.Helper()
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp, &out
}

// TestBatchEndpointEnvelopes exercises the per-item result-or-error
// contract: a malformed item resolves to its own envelope without
// poisoning the valid neighbors.
func TestBatchEndpointEnvelopes(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	good := OptimizeRequest{
		Query:    workload.Generate(workload.Chain, 8, 1, workload.Config{}),
		Strategy: "dp-leftdeep",
		Timeout:  "10s",
	}
	bad := OptimizeRequest{SQL: "SELECT 1"} // SQL without a catalog
	other := OptimizeRequest{
		Query:    workload.Generate(workload.Star, 6, 2, workload.Config{}),
		Strategy: "greedy",
		Timeout:  "2s",
	}

	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: []OptimizeRequest{good, bad, other}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch answered %d items, want 3", len(out.Results))
	}
	for i, want := range []struct {
		ok   bool
		code string
	}{{ok: true}, {code: CodeBadRequest}, {ok: true}} {
		it := out.Results[i]
		if it.Index != i {
			t.Errorf("item %d carries index %d", i, it.Index)
		}
		if want.ok {
			if it.Response == nil || it.Response.Result == nil || it.Response.Result.Plan == nil {
				t.Errorf("item %d carries no plan: %+v", i, it)
			}
			if it.Error != nil {
				t.Errorf("item %d carries both outcomes", i)
			}
			continue
		}
		if it.Error == nil || it.Error.Code != want.code {
			t.Errorf("item %d error = %+v, want code %s", i, it.Error, want.code)
		}
		if it.Response != nil {
			t.Errorf("failed item %d also carries a response", i)
		}
	}

	// The same valid query again hits the now-warm cache.
	_, out = postBatch(t, ts.URL, BatchRequest{Queries: []OptimizeRequest{good}}, nil)
	if len(out.Results) != 1 || out.Results[0].Response == nil || !out.Results[0].Response.CacheHit {
		t.Errorf("repeat batch item did not hit the cache: %+v", out.Results)
	}
	if snap := s.Snapshot(); snap.Batches != 2 || snap.BatchItems != 4 {
		t.Errorf("batch counters = %d/%d, want 2/4", snap.Batches, snap.BatchItems)
	}
}

// TestBatchRejectsStreaming pins the JSON-only rule: a batch that asks
// for an SSE answer gets a structured bad_request pointing at the
// streaming endpoint, not a protocol upgrade.
func TestBatchRejectsStreaming(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hdr := http.Header{}
	hdr.Set("Accept", "text/event-stream")
	breq := BatchRequest{Queries: []OptimizeRequest{{
		Query: workload.Generate(workload.Chain, 6, 1, workload.Config{}), Strategy: "greedy",
	}}}
	resp, _ := postBatch(t, ts.URL, breq, hdr)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("streaming batch status = %d, want 400", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error envelope does not parse: %v", err)
	}
	if env.Err.Code != CodeBadRequest {
		t.Errorf("code = %q, want %q", env.Err.Code, CodeBadRequest)
	}
}

// TestBatchRequestValidation covers the whole-batch 400s.
func TestBatchRequestValidation(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, _ := postBatch(t, ts.URL, BatchRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	over := BatchRequest{Queries: make([]OptimizeRequest, maxBatchItems+1)}
	for i := range over.Queries {
		over.Queries[i] = OptimizeRequest{Query: workload.Generate(workload.Chain, 4, 1, workload.Config{}), Strategy: "greedy"}
	}
	if resp, _ := postBatch(t, ts.URL, over, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch status = %d, want 400", resp.StatusCode)
	}
}

// TestBatchTenantRateLimit bills batch items at ingress, per item.
func TestBatchTenantRateLimit(t *testing.T) {
	s := mustServer(t, Config{TenantRate: 1, TenantBurst: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	mk := func(seed int64) OptimizeRequest {
		return OptimizeRequest{
			Query: workload.Generate(workload.Chain, 5, seed, workload.Config{}), Strategy: "greedy", Timeout: "2s",
		}
	}
	_, out := postBatch(t, ts.URL, BatchRequest{
		Tenant:  "acme",
		Queries: []OptimizeRequest{mk(1), mk(2), mk(3)},
	}, nil)
	var limited, answered int
	for _, it := range out.Results {
		switch {
		case it.Error != nil && it.Error.Code == CodeRateLimited:
			limited++
			if it.Error.RetryAfterMillis <= 0 {
				t.Error("rate-limited item carries no retry-after hint")
			}
		case it.Response != nil:
			answered++
		}
	}
	if answered != 2 || limited != 1 {
		t.Errorf("burst-2 tenant: answered=%d limited=%d, want 2/1", answered, limited)
	}
}

// TestBatchClusterForwarding posts one batch at a single node of a
// three-node ring and asserts remote items travel as sub-batches to
// their owners: every item answered, each fingerprint solved exactly
// once, by the node the ring names.
func TestBatchClusterForwarding(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	const distinct = 6
	breq := BatchRequest{Queries: make([]OptimizeRequest, distinct)}
	queries := make([]*joinorder.Query, distinct)
	for i := range breq.Queries {
		q := workload.Generate(workload.Chain, 8, int64(i+1), workload.Config{})
		queries[i] = q
		breq.Queries[i] = OptimizeRequest{Query: q, Strategy: "dp-leftdeep", Timeout: "10s"}
	}

	resp, out := postBatch(t, tc.https[0].URL, breq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if node := resp.Header.Get(NodeHeader); node != tc.peers[0].ID {
		t.Errorf("batch document from %q, want ingress node %q", node, tc.peers[0].ID)
	}
	for i, it := range out.Results {
		if it.Response == nil || it.Response.Result == nil || it.Response.Result.Plan == nil {
			t.Fatalf("item %d unanswered: %+v", i, it)
		}
	}
	if got := tc.totalSolves(); got != distinct {
		t.Errorf("cluster performed %d solves for %d distinct queries", got, distinct)
	}
	// At least one item must have hashed off the ingress node and been
	// solved remotely via a sub-batch forward.
	var remoteSolves int64
	for i := 1; i < len(tc.solves); i++ {
		remoteSolves += tc.solves[i].n.Load()
	}
	if remoteSolves == 0 {
		t.Error("no sub-batch reached a remote owner")
	}
	if tc.routers[0].Stats().Forwards == 0 {
		t.Error("ingress node recorded no forwards")
	}
}

// TestBatchClusterReplicaRead posts a mixed batch at one node of a warm
// ring: for every node there is one item whose entry is already replicated
// everywhere and one the cluster has never seen, plus a malformed item.
// Residency splits the batch — resident items are served by the ingress
// node, only the unseen ones travel, as one sub-batch per owning peer —
// and the answer keeps request order and per-item envelopes.
func TestBatchClusterReplicaRead(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	const ingress = 0

	// One warm and one cold query per owner, found by walking seeds.
	warm := make([]*OptimizeRequest, len(tc.peers))
	cold := make([]*OptimizeRequest, len(tc.peers))
	for seed, missing := int64(1), 2*len(tc.peers); missing > 0; seed++ {
		if seed > 256 {
			t.Fatal("256 seeds did not put two queries on every node")
		}
		q := workload.Generate(workload.Chain, 8, seed, workload.Config{})
		req := &OptimizeRequest{Query: q, Strategy: "dp-leftdeep", Timeout: "10s"}
		switch o := tc.ownerIndex(t, q); {
		case warm[o] == nil:
			warm[o] = req
			missing--
		case cold[o] == nil:
			cold[o] = req
			missing--
		}
	}
	for o, req := range warm {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp, _ := postOptimize(t, tc.https[o], body); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming request at node %d: status %d", o, resp.StatusCode)
		}
	}
	tc.flush(t)

	// Interleave: warm and cold alternate, the malformed item sits inside.
	var breq BatchRequest
	isWarm := map[int]bool{}
	const badAt = 3
	for o := range tc.peers {
		for _, req := range []*OptimizeRequest{warm[o], cold[o]} {
			if len(breq.Queries) == badAt {
				breq.Queries = append(breq.Queries, OptimizeRequest{SQL: "SELECT 1"}) // SQL without a catalog
			}
			isWarm[len(breq.Queries)] = req == warm[o]
			breq.Queries = append(breq.Queries, *req)
		}
	}

	before := make([]Snapshot, len(tc.servers))
	for i, s := range tc.servers {
		before[i] = s.Snapshot()
	}
	resp, out := postBatch(t, tc.https[ingress].URL, breq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if len(out.Results) != len(breq.Queries) {
		t.Fatalf("batch answered %d items, want %d", len(out.Results), len(breq.Queries))
	}
	for i, it := range out.Results {
		if it.Index != i {
			t.Errorf("item %d carries index %d", i, it.Index)
		}
		if i == badAt {
			if it.Error == nil || it.Error.Code != CodeBadRequest || it.Response != nil {
				t.Errorf("malformed item %d = %+v, want a lone %s envelope", i, it, CodeBadRequest)
			}
			continue
		}
		if it.Error != nil || it.Response == nil || it.Response.Result == nil || it.Response.Result.Plan == nil {
			t.Fatalf("item %d unanswered: %+v", i, it)
		}
		opts, err := breq.Queries[i].options(Config{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := joinorder.Optimize(context.Background(), breq.Queries[i].Query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := it.Response.Result.Cost; got != ref.Cost {
			t.Errorf("item %d costs %g, its query's optimum is %g: results out of order", i, got, ref.Cost)
		}
		if it.Response.CacheHit != isWarm[i] {
			t.Errorf("item %d: cache_hit=%v, want %v", i, it.Response.CacheHit, isWarm[i])
		}
	}

	remote := int64(len(tc.peers) - 1)
	for i, s := range tc.servers {
		after := s.Snapshot()
		batches, items := after.Batches-before[i].Batches, after.BatchItems-before[i].BatchItems
		d := cluster.Stats{
			ReplicaHits: after.Cluster.ReplicaHits - before[i].Cluster.ReplicaHits,
			Forwards:    after.Cluster.Forwards - before[i].Cluster.Forwards,
		}
		if i == ingress {
			// One forward per remote peer; every remote peer's warm item was
			// read here.
			if want := (cluster.Stats{ReplicaHits: remote, Forwards: remote}); d != want {
				t.Errorf("ingress router counted %+v, want %+v", d, want)
			}
			if batches != 1 || items != int64(len(breq.Queries)) {
				t.Errorf("ingress received %d batches / %d items, want 1 / %d", batches, items, len(breq.Queries))
			}
			continue
		}
		// Exactly the one cold item this peer owns reached it.
		if batches != 1 || items != 1 {
			t.Errorf("node %d received %d sub-batches / %d items, want 1 / 1", i, batches, items)
		}
		if d != (cluster.Stats{}) {
			t.Errorf("node %d router counted %+v for a forwarded sub-batch", i, d)
		}
	}
	for i, cs := range tc.solves {
		if got := cs.n.Load(); got != 2 {
			t.Errorf("node %d performed %d solves, want 2 (its warm and its cold query)", i, got)
		}
	}
	tc.flush(t)
}
