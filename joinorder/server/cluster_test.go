package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
	"milpjoin/joinorder/cluster"
)

// countingSolver wraps the real optimizer with a solve counter, so
// cluster tests can assert how many solves the whole ring performed.
type countingSolver struct{ n atomic.Int64 }

func (c *countingSolver) fn(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
	c.n.Add(1)
	return joinorder.Optimize(ctx, q, opts)
}

// testCluster is an in-process joinoptd ring: every node is a full
// Server with its own Router, all listening on real TCP ports (the ring
// membership must carry final URLs, so listeners are bound first).
type testCluster struct {
	peers   []cluster.Peer
	servers []*Server
	https   []*httptest.Server
	routers []*cluster.Router
	solves  []*countingSolver
}

func newTestCluster(t testing.TB, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	return newTestClusterReplicas(t, n, 2, mutate)
}

// newTestClusterReplicas is newTestCluster with every router's
// cluster.Config.Replicas set to replicas.
func newTestClusterReplicas(t testing.TB, n, replicas int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), URL: "http://" + l.Addr().String()}
	}
	tc := &testCluster{peers: peers}
	for i := range listeners {
		rt, err := cluster.New(cluster.Config{
			Self:          peers[i].ID,
			Peers:         peers,
			Replicas:      replicas,
			ProbeInterval: -1, // deterministic: health changes only via Forward failures
			Logger:        testLogger(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingSolver{}
		cfg := Config{
			Cluster: rt,
			Cache:   cache.Config{Optimize: cs.fn},
			Logger:  testLogger(t),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := mustServer(t, cfg)
		ts := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: s},
		}
		ts.Start()
		tc.servers = append(tc.servers, s)
		tc.https = append(tc.https, ts)
		tc.routers = append(tc.routers, rt)
		tc.solves = append(tc.solves, cs)
	}
	t.Cleanup(func() {
		for i := range tc.servers {
			tc.https[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			tc.servers[i].Drain(ctx) //nolint:errcheck // best-effort teardown
			cancel()
			tc.routers[i].Close()
		}
	})
	return tc
}

func (tc *testCluster) totalSolves() int64 {
	var n int64
	for _, cs := range tc.solves {
		n += cs.n.Load()
	}
	return n
}

// flush waits until every node's replication queue has been shipped.
func (tc *testCluster) flush(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, rt := range tc.routers {
		if err := rt.Flush(ctx); err != nil {
			t.Fatalf("replication flush: %v", err)
		}
	}
}

// owner resolves which node the ring assigns a query to.
func (tc *testCluster) owner(t testing.TB, q *joinorder.Query) cluster.Peer {
	t.Helper()
	ce, err := cache.Canonicalize(q, cache.Exact)
	if err != nil {
		t.Fatal(err)
	}
	return tc.routers[0].Ring().Owner(ce.Key)
}

// ownerIndex is owner as an index into the cluster's node slices.
func (tc *testCluster) ownerIndex(t testing.TB, q *joinorder.Query) int {
	t.Helper()
	id := tc.owner(t, q).ID
	for i, p := range tc.peers {
		if p.ID == id {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster member", id)
	return -1
}

// clusterQuery builds one cacheable (proven-optimal) request body and its
// query object.
func clusterQuery(t testing.TB, seed int64) (*joinorder.Query, []byte) {
	t.Helper()
	q := workload.Generate(workload.Chain, 8, seed, workload.Config{})
	body, err := json.Marshal(&OptimizeRequest{Query: q, Strategy: "dp-leftdeep", Timeout: "10s"})
	if err != nil {
		t.Fatal(err)
	}
	return q, body
}

// sprayNode spreads copy c of query i across n nodes.
func sprayNode(i, c, n int) int { return (i + c) % n }

// TestClusterSingleSolvePerFingerprint is the tentpole invariant: under a
// concurrent storm of identical queries sprayed across all three nodes,
// the ring routes every miss to one owner, coalescing and caching collapse
// the copies, and the whole cluster solves each fingerprint exactly once.
// Who answers a copy is not part of it: the owner does, or — once the
// replicated entry has reached it — the node the copy was sent to, so the
// check is that every answer names one of the two.
func TestClusterSingleSolvePerFingerprint(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	const distinct = 6
	const copies = 8
	queries := make([]*joinorder.Query, distinct)
	bodies := make([][]byte, distinct)
	for i := range queries {
		queries[i], bodies[i] = clusterQuery(t, int64(i+1))
	}

	type answer struct {
		status int
		node   string
		out    OptimizeResponse
	}
	answers := make([]answer, distinct*copies)
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func(i, c int) {
				defer wg.Done()
				ts := tc.https[(i+c)%len(tc.https)] // spray across nodes
				resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Errorf("query %d copy %d: %v", i, c, err)
					return
				}
				defer resp.Body.Close()
				a := &answers[i*copies+c]
				a.status = resp.StatusCode
				a.node = resp.Header.Get(NodeHeader)
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&a.out); err != nil {
						t.Errorf("query %d copy %d: decoding: %v", i, c, err)
					}
				}
			}(i, c)
		}
	}
	wg.Wait()

	for i := 0; i < distinct; i++ {
		owner := tc.owner(t, queries[i])
		for c := 0; c < copies; c++ {
			a := answers[i*copies+c]
			if a.status != http.StatusOK {
				t.Fatalf("query %d copy %d: status %d", i, c, a.status)
			}
			if a.out.Result == nil || a.out.Result.Plan == nil {
				t.Fatalf("query %d copy %d carries no plan", i, c)
			}
			if asked := tc.peers[sprayNode(i, c, len(tc.peers))].ID; a.node != owner.ID && a.node != asked {
				t.Errorf("query %d copy %d answered by %s; ring owner is %s, asked node %s", i, c, a.node, owner.ID, asked)
			}
		}
	}
	if got := tc.totalSolves(); got != distinct {
		t.Errorf("cluster performed %d solves for %d distinct fingerprints", got, distinct)
	}

	// Misses that hashed elsewhere were forwarded, not solved locally.
	var forwards int64
	for _, rt := range tc.routers {
		forwards += rt.Stats().Forwards
	}
	if forwards == 0 {
		t.Error("no forwards recorded; the spray should cross shard boundaries")
	}

	// Replication: each owner announced its fresh entries to both ring
	// successors, so with three nodes every exact entry lands everywhere.
	tc.flush(t)
	for i, s := range tc.servers {
		cs := s.Cache().Stats()
		if cs.Entries != distinct {
			t.Errorf("node %d holds %d exact entries after replication, want %d", i, cs.Entries, distinct)
		}
		if cs.Imported == 0 {
			t.Errorf("node %d imported no replicated entries", i)
		}
	}
}

// TestClusterReplicasZeroDisablesReplication: Replicas 0 is read as
// written — no entry is shipped to a peer, so a non-owner holds nothing and
// forwards the repeat of a solved query to its owner, which answers it from
// its cache.
func TestClusterReplicasZeroDisablesReplication(t *testing.T) {
	tc := newTestClusterReplicas(t, 3, 0, nil)
	q, body := clusterQuery(t, 1)
	owner := tc.ownerIndex(t, q)
	if resp, out := postOptimize(t, tc.https[owner], body); resp.StatusCode != http.StatusOK || out.CacheHit {
		t.Fatalf("first request: status %d, %+v", resp.StatusCode, out)
	}
	tc.flush(t)
	for i, rt := range tc.routers {
		if s := rt.Stats(); s.Replicated != 0 {
			t.Errorf("node %d replicated %d entries with Replicas 0", i, s.Replicated)
		}
	}

	i := (owner + 1) % len(tc.peers)
	before := tc.routers[i].Stats()
	resp, out := postOptimize(t, tc.https[i], body)
	after := tc.routers[i].Stats()
	if by := resp.Header.Get(NodeHeader); resp.StatusCode != http.StatusOK || by != tc.peers[owner].ID || !out.CacheHit {
		t.Errorf("repeat at a non-owner: status %d answered by %q (cache_hit=%v), want a hit on the owner %q",
			resp.StatusCode, by, out != nil && out.CacheHit, tc.peers[owner].ID)
	}
	if fw, rh := after.Forwards-before.Forwards, after.ReplicaHits-before.ReplicaHits; fw != 1 || rh != 0 {
		t.Errorf("non-owner counted %d forwards and %d replica hits, want 1 and 0", fw, rh)
	}
	if got := tc.totalSolves(); got != 1 {
		t.Errorf("cluster performed %d solves for one fingerprint", got)
	}
}

// TestClusterFailOpen kills a query's owning node and asserts the others
// still answer it — locally, after the forward fails and demotes the peer.
func TestClusterFailOpen(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	// Find a query owned by a node other than n0 so n0 must forward.
	var q *joinorder.Query
	var body []byte
	var owner cluster.Peer
	for seed := int64(1); seed < 64; seed++ {
		q, body = clusterQuery(t, seed)
		if owner = tc.owner(t, q); owner.ID != tc.peers[0].ID {
			break
		}
	}
	if owner.ID == tc.peers[0].ID {
		t.Fatal("no query hashed away from n0 in 64 seeds")
	}
	tc.https[tc.ownerIndex(t, q)].Close()

	resp, out := postOptimize(t, tc.https[0], body)
	if resp.StatusCode != http.StatusOK || out == nil || out.Result == nil {
		t.Fatalf("fail-open answer: status %d, %+v", resp.StatusCode, out)
	}
	if node := resp.Header.Get(NodeHeader); node != tc.peers[0].ID {
		t.Errorf("fail-open served by %q, want local node %q", node, tc.peers[0].ID)
	}
	if tc.solves[0].n.Load() != 1 {
		t.Errorf("local node performed %d solves, want 1", tc.solves[0].n.Load())
	}
	// The failed forward demoted the dead peer, so the next request
	// routes local immediately instead of paying another dial.
	if tc.routers[0].Healthy(owner.ID) {
		t.Error("dead owner still marked healthy after failed forward")
	}
	if _, remote := tc.routers[0].Route("anything-owned-by-" + owner.ID); remote {
		// Route may pick a different owner for this key; only assert the
		// original query now stays local.
		ce, err := cache.Canonicalize(q, cache.Exact)
		if err != nil {
			t.Fatal(err)
		}
		if _, remote := tc.routers[0].Route(ce.Key); remote {
			t.Error("query still routes to the dead owner")
		}
	}
}

// TestClusterRestartWarmHitRate drains a persistent node, restarts it on
// the same log, and asserts the warm cache answers without re-solving.
func TestClusterRestartWarmHitRate(t *testing.T) {
	dir := t.TempDir()
	open := func() (*persist.Log, *countingSolver, *Server, *httptest.Server) {
		plog, err := persist.Open(persist.Config{Dir: dir, Policy: persist.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingSolver{}
		s := mustServer(t, Config{Cache: cache.Config{Optimize: cs.fn, Persist: plog}})
		return plog, cs, s, httptest.NewServer(s)
	}

	plog, cs, s, ts := open()
	const distinct = 8
	bodies := make([][]byte, distinct)
	for i := range bodies {
		_, bodies[i] = clusterQuery(t, int64(i+1))
		if resp, out := postOptimize(t, ts, bodies[i]); resp.StatusCode != http.StatusOK || out.CacheHit {
			t.Fatalf("seed request %d: status %d, hit=%v", i, resp.StatusCode, out != nil && out.CacheHit)
		}
	}
	if cs.n.Load() != distinct {
		t.Fatalf("first generation solved %d, want %d", cs.n.Load(), distinct)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := plog.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same log, fresh process state.
	plog2, cs2, s2, ts2 := open()
	defer func() {
		ts2.Close()
		s2.Drain(ctx) //nolint:errcheck // best-effort teardown
		plog2.Close()
	}()
	hits := 0
	for i, body := range bodies {
		resp, out := postOptimize(t, ts2, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, resp.StatusCode)
		}
		if out.CacheHit {
			hits++
		}
	}
	if rate := float64(hits) / distinct; rate < 0.95 {
		t.Errorf("warm hit rate %.2f, want ≥ 0.95", rate)
	}
	if cs2.n.Load() != 0 {
		t.Errorf("restarted node re-solved %d queries", cs2.n.Load())
	}
	if replayed := s2.Cache().Stats().Replayed; replayed == 0 {
		t.Error("restart replayed nothing")
	}
}

// lockedBuffer collects a node's log lines for a test to read back.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestClusterReplicaRead pins who answers once an entry is replicated:
// residency, not ownership, decides a hit — the node a request lands on
// serves it from its own copy with no hop and no dependence on the owner
// being up — while a miss (unseen, or expired on this node) still travels
// to the ring owner, the one place where fingerprints solve.
func TestClusterReplicaRead(t *testing.T) {
	// send posts body to node i and reports who answered and what the
	// node's router counted for it.
	send := func(t *testing.T, tc *testCluster, i int, body []byte) (by string, out *OptimizeResponse, delta cluster.Stats) {
		t.Helper()
		before := tc.routers[i].Stats()
		resp, out := postOptimize(t, tc.https[i], body)
		if resp.StatusCode != http.StatusOK || out.Result == nil || out.Result.Plan == nil {
			t.Fatalf("node %d: status %d, %+v", i, resp.StatusCode, out)
		}
		after := tc.routers[i].Stats()
		return resp.Header.Get(NodeHeader), out, cluster.Stats{
			RoutedLocal:   after.RoutedLocal - before.RoutedLocal,
			ReplicaHits:   after.ReplicaHits - before.ReplicaHits,
			Forwards:      after.Forwards - before.Forwards,
			ForwardErrors: after.ForwardErrors - before.ForwardErrors,
		}
	}

	logs := make([]*lockedBuffer, 3)
	tc := newTestCluster(t, len(logs), func(i int, cfg *Config) {
		logs[i] = &lockedBuffer{}
		cfg.Logger = slog.New(slog.NewTextHandler(logs[i], nil))
	})
	q, body := clusterQuery(t, 1)
	owner := tc.ownerIndex(t, q)
	if resp, _ := postOptimize(t, tc.https[owner], body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}
	tc.flush(t)

	for i, p := range tc.peers {
		t.Run("warm query at "+p.ID, func(t *testing.T) {
			by, out, d := send(t, tc, i, body)
			if by != p.ID || !out.CacheHit {
				t.Errorf("answered by %q (cache_hit=%v), want a hit on the asked node %q", by, out.CacheHit, p.ID)
			}
			want := cluster.Stats{RoutedLocal: 1}
			if i != owner {
				want.ReplicaHits = 1
			}
			if d != want {
				t.Errorf("router counted %+v, want %+v", d, want)
			}
		})
	}
	if got := tc.totalSolves(); got != 1 {
		t.Fatalf("cluster performed %d solves for one fingerprint", got)
	}

	t.Run("replica reads are observable", func(t *testing.T) {
		for i, ts := range tc.https {
			want := 1
			if i == owner {
				want = 0
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			metrics, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if line := fmt.Sprintf("joinoptd_cluster_replica_hits_total %d\n", want); !strings.Contains(string(metrics), line) {
				t.Errorf("node %d: /metrics lacks %q", i, line)
			}
			varz, err := json.Marshal(tc.servers[i].Snapshot().Cluster)
			if err != nil {
				t.Fatal(err)
			}
			if field := fmt.Sprintf(`"replica_hits":%d`, want); !strings.Contains(string(varz), field) {
				t.Errorf("node %d: /varz cluster block %s lacks %s", i, varz, field)
			}
			if got := strings.Count(logs[i].String(), "replica=true"); got != want {
				t.Errorf("node %d logged replica=true %d times, want %d", i, got, want)
			}
		}
	})

	t.Run("unseen query at a non-owner is forwarded", func(t *testing.T) {
		q2, body2 := clusterQuery(t, 2)
		owner2 := tc.ownerIndex(t, q2)
		by, out, d := send(t, tc, (owner2+1)%len(tc.peers), body2)
		if by != tc.peers[owner2].ID || out.CacheHit {
			t.Errorf("answered by %q (cache_hit=%v), want a solve on the owner %q", by, out.CacheHit, tc.peers[owner2].ID)
		}
		if want := (cluster.Stats{Forwards: 1}); d != want {
			t.Errorf("router counted %+v, want %+v", d, want)
		}
		if got := tc.totalSolves(); got != 2 {
			t.Errorf("cluster performed %d solves for two fingerprints", got)
		}
		tc.flush(t)
	})

	t.Run("owner down, replica still answers", func(t *testing.T) {
		tc.https[owner].Close()
		i := (owner + 1) % len(tc.peers)
		by, out, d := send(t, tc, i, body)
		if by != tc.peers[i].ID || !out.CacheHit {
			t.Errorf("answered by %q (cache_hit=%v), want a hit on %q", by, out.CacheHit, tc.peers[i].ID)
		}
		if want := (cluster.Stats{RoutedLocal: 1, ReplicaHits: 1}); d != want {
			t.Errorf("router counted %+v, want %+v: a held entry must not attempt the forward", d, want)
		}
		if !tc.routers[i].Healthy(tc.peers[owner].ID) {
			t.Error("replica read demoted the owner it never contacted")
		}
	})

	// The TTL runs on the cache's own clock, which a server test cannot
	// reach, so this case waits it out on a cluster of its own.
	t.Run("expired replica is not held", func(t *testing.T) {
		const ttl = 50 * time.Millisecond
		tc := newTestCluster(t, 3, func(_ int, cfg *Config) { cfg.Cache.TTL = ttl })
		owner := tc.ownerIndex(t, q)
		if resp, _ := postOptimize(t, tc.https[owner], body); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming request: status %d", resp.StatusCode)
		}
		tc.flush(t)
		time.Sleep(2 * ttl)
		by, out, d := send(t, tc, (owner+1)%len(tc.peers), body)
		if by != tc.peers[owner].ID || out.CacheHit {
			t.Errorf("answered by %q (cache_hit=%v), want a fresh solve on the owner %q", by, out.CacheHit, tc.peers[owner].ID)
		}
		if want := (cluster.Stats{Forwards: 1}); d != want {
			t.Errorf("router counted %+v, want %+v", d, want)
		}
		tc.flush(t)
	})
}
