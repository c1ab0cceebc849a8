package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
	"milpjoin/joinorder/cluster"
	"milpjoin/joinorder/server"
)

// servingSpec defines a workload of HTTP requests against in-process
// joinoptd nodes on loopback listeners, sent by two closed-loop clients.
// Every request asks for strategy dp-leftdeep, so a miss costs an exact DP
// solve and a hit costs the serving path alone.
type servingSpec struct {
	name  string
	nodes int // 1, or the size of the ring
	// hot queries are warmed and requested under relabelings variants of
	// their table order; cold queries are never warmed and are cycled
	// through, so each one has been evicted before it comes round again.
	hot, relabelings, cold int
	minTables, maxTables   int
	// maxEntries bounds each node's cache (0: the cache's default, 1024).
	maxEntries int
	// persist puts a plan log with SyncNone under every node's cache: the
	// log's append and compaction run, an fsync per store does not.
	persist bool
	// blockRequests is the number of requests in one block, both clients
	// together.
	blockRequests int
}

var (
	serveHit   = servingSpec{name: "serve-hit", nodes: 1, hot: 48, relabelings: 4, minTables: 6, maxTables: 11, blockRequests: 8000}
	serveChurn = servingSpec{name: "serve-churn", nodes: 1, hot: 64, relabelings: 2, cold: 1024, minTables: 6, maxTables: 9, maxEntries: 256, persist: true, blockRequests: 3000}
	ringHit    = servingSpec{name: "ring-hit", nodes: 3, hot: 48, relabelings: 4, minTables: 6, maxTables: 11, blockRequests: 4000}
)

// servingClients is the number of closed-loop clients, each on connections
// of its own.
const servingClients = 2

// served is one request the workload can send: a query under one labeling,
// its wire form and the reference of the query it relabels.
type served struct {
	q    *joinorder.Query
	body []byte
	ref  reference
}

// relabel returns q with table i renamed to position perm[i].
func relabel(q *joinorder.Query, perm []int) *joinorder.Query {
	out := &joinorder.Query{Tables: make([]joinorder.Table, len(q.Tables))}
	for i, t := range q.Tables {
		out.Tables[perm[i]] = t
	}
	for _, p := range q.Predicates {
		p.Tables = append([]int(nil), p.Tables...)
		for k, t := range p.Tables {
			p.Tables[k] = perm[t]
		}
		out.Predicates = append(out.Predicates, p)
	}
	return out
}

// inputs generates the workload's requests from the seed: hot[i] holds the
// labelings of hot query i (the first is the generator's own), cold the cold
// queries.
func (s servingSpec) inputs(ctx context.Context, seed int64) (hot [][]served, cold []served, err error) {
	rng := rand.New(rand.NewSource(seed))
	shapes := workload.Shapes()
	span := s.maxTables - s.minTables + 1
	draw := func(i int) (*joinorder.Query, reference, error) {
		q := workload.Generate(shapes[i%len(shapes)], s.minTables+i%span, rng.Int63(), workload.Config{})
		ref, err := referenceFor(ctx, q)
		return q, ref, err
	}
	wire := func(q *joinorder.Query, ref reference) (served, error) {
		body, err := json.Marshal(map[string]any{"query": q, "strategy": "dp-leftdeep", "timeout": "10s"})
		return served{q: q, body: body, ref: ref}, err
	}
	for i := 0; i < s.hot; i++ {
		q, ref, err := draw(i)
		if err != nil {
			return nil, nil, err
		}
		variants := make([]served, s.relabelings)
		for v := range variants {
			vq := q
			if v > 0 {
				vq = relabel(q, rng.Perm(q.NumTables()))
			}
			if variants[v], err = wire(vq, ref); err != nil {
				return nil, nil, err
			}
		}
		hot = append(hot, variants)
	}
	for i := 0; i < s.cold; i++ {
		q, ref, err := draw(i)
		if err != nil {
			return nil, nil, err
		}
		sv, err := wire(q, ref)
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, sv)
	}
	return hot, cold, nil
}

// node is one in-process joinoptd with what must be closed after it.
type node struct {
	id     string
	srv    *server.Server
	http   *httptest.Server
	router *cluster.Router
	log    *persist.Log
	logDir string
}

// system is the set-up system under test with its inputs.
type system struct {
	spec  servingSpec
	nodes []*node
	hot   [][]served
	cold  []served
	// clients[c] is client c's HTTP client, on a transport of its own.
	clients []*http.Client
}

func (sys *system) url(n int) string { return sys.nodes[n].http.URL + "/v1/optimize" }

// build generates the inputs, starts the nodes and warms them: every hot
// query is sent once (to the node a round-robin client would pick) and its
// answer is checked in full.
func (s servingSpec) build(ctx context.Context, env *runEnv) (*system, error) {
	sys := &system{spec: s}
	var err error
	if sys.hot, sys.cold, err = s.inputs(ctx, env.seed); err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	listeners := make([]net.Listener, s.nodes)
	peers := make([]cluster.Peer, s.nodes)
	for i := range listeners {
		if listeners[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), URL: "http://" + listeners[i].Addr().String()}
	}
	for i := range listeners {
		n := &node{id: peers[i].ID}
		sys.nodes = append(sys.nodes, n)
		cfg := server.Config{Logger: quiet, Cache: cache.Config{MaxEntries: s.maxEntries}}
		if s.persist {
			if n.logDir, err = os.MkdirTemp(env.outDir, "planlog-"); err != nil {
				return sys, err
			}
			if n.log, err = persist.Open(persist.Config{Dir: n.logDir, Policy: persist.SyncNone}); err != nil {
				return sys, err
			}
			cfg.Cache.Persist = n.log
		}
		if s.nodes > 1 {
			n.router, err = cluster.New(cluster.Config{Self: n.id, Peers: peers, Replicas: 2, ProbeInterval: -1, Logger: quiet})
			if err != nil {
				return sys, err
			}
			cfg.Cluster = n.router
		}
		if n.srv, err = server.New(cfg); err != nil {
			return sys, err
		}
		n.http = &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: n.srv}}
		n.http.Start()
	}
	for c := 0; c < servingClients; c++ {
		sys.clients = append(sys.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	for i, variants := range sys.hot {
		if _, err := sys.sendChecked(ctx, 0, i%s.nodes, variants[0]); err != nil {
			return sys, fmt.Errorf("warming hot query %d: %w", i, err)
		}
	}
	for _, n := range sys.nodes {
		if n.router != nil { // let replication land before the timed phase
			if err := n.router.Flush(ctx); err != nil {
				return sys, err
			}
		}
	}
	return sys, nil
}

// close stops every node and removes the temporary files.
func (sys *system) close() {
	for _, c := range sys.clients {
		c.CloseIdleConnections()
	}
	for _, n := range sys.nodes {
		if n.http != nil {
			n.http.Close()
		}
		if n.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n.srv.Drain(ctx) //nolint:errcheck // nothing is in flight; Drain only unregisters the node
			cancel()
		}
		if n.router != nil {
			n.router.Close()
		}
		if n.log != nil {
			n.log.Close() //nolint:errcheck // the log is deleted next
		}
		if n.logDir != "" {
			os.RemoveAll(n.logDir) //nolint:errcheck // a leftover temp dir is swept with bench/out
		}
	}
}

// send posts one request and returns the status, the body and the node that
// answered.
func (sys *system) send(ctx context.Context, client, node int, sv served) (status int, body []byte, by string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sys.url(node), bytes.NewReader(sv.body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sys.clients[client].Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get(server.NodeHeader), err
}

// sendChecked sends one request and runs the full oracle on the reply.
func (sys *system) sendChecked(ctx context.Context, client, node int, sv served) (*server.OptimizeResponse, error) {
	status, body, _, err := sys.send(ctx, client, node, sv)
	if err != nil {
		return nil, err
	}
	return checkReply(sv.q, status, body, sv.ref)
}

// pick chooses client c's next request. With cold queries, every second
// request is the next cold one of the client's half; otherwise a random
// labeling of a random hot query. The target node rotates per request.
func (sys *system) pick(rng *rand.Rand, c, k int) (served, int) {
	nodeIdx := (k*servingClients + c) % len(sys.nodes)
	if len(sys.cold) > 0 && k%2 == 1 {
		half := len(sys.cold) / servingClients
		return sys.cold[c*half+(k/2)%half], nodeIdx
	}
	variants := sys.hot[rng.Intn(len(sys.hot))]
	return variants[rng.Intn(len(variants))], nodeIdx
}

// blockResult is what one block of requests measured.
type blockResult struct {
	seconds   float64
	latencies []float64 // ms, every answered request
	remote    []bool    // per latency: answered by another node than asked
	failed    int
}

// block sends the spec's blockRequests, split between the clients, and
// checks the status of every reply. next[c] is how many requests client c
// has sent in earlier blocks, so the cold cycle continues across blocks.
func (sys *system) block(ctx context.Context, seed int64, b int, next []int, tr *tracer) blockResult {
	per := sys.spec.blockRequests / servingClients
	results := make([]blockResult, servingClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < servingClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b)*servingClients + int64(c)))
			r := &results[c]
			r.latencies = make([]float64, 0, per)
			r.remote = make([]bool, 0, per)
			for k := next[c]; k < next[c]+per; k++ {
				sv, nodeIdx := sys.pick(rng, c, k)
				sp := tr.begin("request", k*servingClients+c, -1)
				t0 := time.Now()
				status, _, by, err := sys.send(ctx, c, nodeIdx, sv)
				lat := time.Since(t0)
				tr.end(sp)
				if err != nil || status != http.StatusOK {
					r.failed++
					continue
				}
				r.latencies = append(r.latencies, ms(lat.Seconds()))
				r.remote = append(r.remote, by != "" && by != sys.nodes[nodeIdx].id)
			}
		}(c)
	}
	wg.Wait()
	out := blockResult{seconds: time.Since(start).Seconds()}
	for c := range results {
		next[c] += per
		out.latencies = append(out.latencies, results[c].latencies...)
		out.remote = append(out.remote, results[c].remote...)
		out.failed += results[c].failed
	}
	return out
}

// finalPass sends every distinct request once more and checks each answer
// in full: every labeling of every hot query, and every cold query.
func (sys *system) finalPass(ctx context.Context, out *outcome) (quality, costRatio []float64) {
	check := func(k int, sv served) {
		out.attempted++
		resp, err := sys.sendChecked(ctx, 0, k%len(sys.nodes), sv)
		if err != nil {
			out.failed++
			if len(out.notes) < 10 {
				out.notes = append(out.notes, fmt.Sprintf("final pass, request %d: %v", k, err))
			}
			return
		}
		quality = append(quality, boundQuality(resp.Result))
		costRatio = append(costRatio, resp.Result.Cost/sv.ref.cost)
	}
	k := 0
	for _, variants := range sys.hot {
		for _, sv := range variants {
			check(k, sv)
			k++
		}
	}
	for _, sv := range sys.cold {
		check(k, sv)
		k++
	}
	return quality, costRatio
}

// run measures the workload for env.seconds with tracing off.
func (s servingSpec) run(ctx context.Context, env *runEnv) (*outcome, error) {
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	echo := newEchoCalibrator()
	defer echo.close()
	// Set-up is generation, DP solves, JSON and construction: CPU work, so
	// the CPU kernels alone put it at reference speed.
	setupSec, err := medianSetup(echo.cpu, func() (err error) {
		sys, err = s.build(ctx, env)
		return err
	}, func() { sys.close() })
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	sm := &servingSamples{}
	next := make([]int, servingClients)
	start := time.Now()
	for b := 0; b == 0 || moreBlocks(start, b, env.seconds); b++ {
		br, err := sys.calibratedBlock(ctx, env.seed, b, next, nil, echo, sm)
		if err != nil {
			return nil, err
		}
		out.attempted += len(br.latencies) + br.failed
		out.failed += br.failed
	}
	if out.failed > 0 {
		out.notes = append(out.notes, fmt.Sprintf("%d requests of the timed blocks were not answered with status 200", out.failed))
	}

	out.notes = append(out.notes, fmt.Sprintf("samples: %d blocks of %d requests; p50_ms and tail_ms are the medians over blocks of a block's p50 and p99", len(sm.p50), s.blockRequests))

	quality, costRatio := sys.finalPass(ctx, out)
	out.values = map[string]float64{
		"setup_s":         setupSec,
		"ops_per_s":       median(sm.opsPerSec),
		"p50_ms":          median(sm.p50),
		"tail_ms":         median(sm.p99),
		"ok_share":        ratio(float64(out.attempted-out.failed), float64(out.attempted)),
		"bound_quality":   mean(quality),
		"plan_cost_ratio": geomean(costRatio),
		"alloc_kb_per_op": ratio(float64(sm.allocBytes)/1024, float64(sm.answered)),
	}
	return out, nil
}

// servingSamples collects what the calibrated blocks of one run measured:
// per block, the rate and the latency percentiles at reference speed, the
// calibration factor and the raw median latency.
type servingSamples struct {
	opsPerSec, p50, p99 []float64
	factors, rawP50     []float64
	// lastReading is the calibration reading after the previous block, which
	// is also the reading before the next one.
	lastReading float64
	answered    int
	allocBytes  uint64
}

// calibratedBlock runs one block between two calibration readings and records
// its figures at reference speed: the factor is the mean reading, rates are
// divided by it and latencies multiplied.
func (sys *system) calibratedBlock(ctx context.Context, seed int64, b int, next []int, tr *tracer, echo *echoCalibrator, sm *servingSamples) (blockResult, error) {
	var err error
	if sm.lastReading == 0 {
		if sm.lastReading, err = echo.read(sys.clients); err != nil {
			return blockResult{}, fmt.Errorf("serving calibration: %w", err)
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	br := sys.block(ctx, seed, b, next, tr)
	runtime.ReadMemStats(&mem1)
	after, err := echo.read(sys.clients)
	if err != nil {
		return br, fmt.Errorf("serving calibration: %w", err)
	}
	f := (sm.lastReading + after) / 2
	sm.lastReading = after
	sm.factors = append(sm.factors, f)
	sm.opsPerSec = append(sm.opsPerSec, float64(len(br.latencies))/br.seconds/f)
	p50 := median(br.latencies)
	sm.p50 = append(sm.p50, p50*f)
	sm.p99 = append(sm.p99, quantile(br.latencies, 0.99)*f)
	sm.rawP50 = append(sm.rawP50, p50)
	sm.answered += len(br.latencies)
	sm.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
	return br, nil
}
