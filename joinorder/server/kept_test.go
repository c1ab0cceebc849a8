package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
)

// hashSpec is the server's default cost model, for re-costing answers.
var hashSpec = cost.Spec{Metric: cost.OperatorCost, Op: cost.HashJoin, Params: cost.Params{}.WithDefaults()}

// altOptimizer is joinorder.Optimize until alt is set. From then on every
// solve but the degraded fallback returns the optimal order reversed, at
// its exact cost and still filed as optimal, so the cache stores it: a
// second valid entry for the same key that no answer can confuse with the
// first.
type altOptimizer struct{ alt atomic.Bool }

func (a *altOptimizer) fn(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
	res, err := joinorder.Optimize(ctx, q, opts)
	if err != nil || !a.alt.Load() || opts.Strategy == "greedy" {
		return res, err
	}
	return reversed(q, res)
}

// reversed is res with its plan's order reversed and re-costed.
func reversed(q *joinorder.Query, res *joinorder.Result) (*joinorder.Result, error) {
	out := *res
	out.Plan = &joinorder.Plan{Order: slices.Clone(res.Plan.Order), Operators: res.Plan.Operators}
	slices.Reverse(out.Plan.Order)
	out.Tree = out.Plan.LeftDeep()
	c, err := plan.Cost(q, out.Plan, hashSpec)
	out.Cost, out.Objective, out.Bound = c, c, c
	return &out, err
}

// relabeled builds the same abstract query under a permuted labeling: table
// i of q is table perm[i] of the result.
func relabeled(q *joinorder.Query, perm []int) *joinorder.Query {
	out := &joinorder.Query{Tables: make([]joinorder.Table, len(q.Tables))}
	for i, t := range q.Tables {
		out.Tables[perm[i]] = t
	}
	for _, p := range q.Predicates {
		np := p
		np.Tables = make([]int, len(p.Tables))
		for k, t := range p.Tables {
			np.Tables[k] = perm[t]
		}
		out.Predicates = append(out.Predicates, np)
	}
	return out
}

// checkAnswer is the benchmark's oracle for one served body: valid JSON,
// a plan that is a permutation of q's tables and, with recost, a Cost equal
// to that plan's exact re-evaluation — which a body mixing one entry's plan
// with another's cost cannot satisfy.
func checkAnswer(t testing.TB, q *joinorder.Query, body []byte, recost bool) *OptimizeResponse {
	t.Helper()
	var resp OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Errorf("decoding %s: %v", body, err)
		return nil
	}
	if resp.Result == nil || resp.Result.Plan == nil || resp.Result.Plan.Validate(q) != nil {
		t.Errorf("no plan over the query's %d tables in %s", q.NumTables(), body)
		return nil
	}
	if !recost {
		return &resp
	}
	exact, err := plan.Cost(q, resp.Result.Plan, hashSpec)
	if err != nil || math.Abs(resp.Result.Cost-exact) > 1e-9*math.Max(1, math.Abs(exact)) {
		t.Errorf("reported cost %.12g, plan %v re-evaluates to %.12g (%v)", resp.Result.Cost, resp.Result.Plan.Order, exact, err)
		return nil
	}
	return &resp
}

func mustPost(t testing.TB, s *Server, path string, body []byte) []byte {
	t.Helper()
	rec := post(s, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// warmKept posts body until an answer is written from kept bytes, and
// returns that answer.
func warmKept(t testing.TB, s *Server, body []byte) []byte {
	t.Helper()
	for i := 0; i < 6; i++ {
		before := s.Snapshot().ResponseTemplateHits
		answer := mustPost(t, s, "/v1/optimize", body)
		s.co.Wait() // a degraded first answer leaves a refine behind
		if s.Snapshot().ResponseTemplateHits > before {
			return answer
		}
	}
	t.Fatal("six repeats of one body and none written from kept bytes")
	return nil
}

// TestKeptBytesFollowTheEntry: a request text keeps the bytes of its last
// plain hit, so every way the entry behind it can change, and every way a
// neighbouring text can share it, must show in the very next answer: plan
// and cost are those the cache itself returns for the query, they differ
// from what the text answered before, and the bytes kept from then on are
// the new ones (the third answer after the change is written from them).
func TestKeptBytesFollowTheEntry(t *testing.T) {
	ctx := context.Background()
	type env struct {
		s    *Server
		alt  *altOptimizer
		q    *joinorder.Query
		body []byte
		rv   *resolved
	}
	for _, tc := range []struct {
		name  string
		cache cache.Config
		req   func(r *OptimizeRequest)
		query *joinorder.Query
		// change alters what answers e.body; it may name another text and its
		// query to ask from then on (nil: e.body).
		change func(t *testing.T, e *env) ([]byte, *joinorder.Query)
		// noRecost: the new entry's cost was computed on another query.
		noRecost bool
	}{
		{
			name:  "background refine after a degraded answer",
			cache: cache.Config{DegradeUnder: 50 * time.Millisecond, BackgroundBudget: 5 * time.Second},
			req:   func(r *OptimizeRequest) { r.Timeout = "40ms" },
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				e.alt.alt.Store(true)
				e.s.co.Invalidate(e.q, e.rv.opts)
				// No entry and a budget under the threshold: the fallback's
				// plan, flagged, and never the bytes the text had kept.
				resp := checkAnswer(t, e.q, mustPost(t, e.s, "/v1/optimize", e.body), true)
				if resp == nil || !resp.Degraded || resp.CacheHit || resp.Result.Strategy != "greedy" {
					t.Fatalf("answer without an entry: %+v", resp)
				}
				e.s.co.Wait()
				return nil, nil
			},
		},
		{
			name: "feedback refresh",
			query: &joinorder.Query{
				Tables: []joinorder.Table{{Card: 200}, {Card: 200}, {Card: 50}, {Card: 50}, {Card: 50}},
				Predicates: []joinorder.Predicate{
					{Tables: []int{0, 1}, Sel: 1e-5}, // truly 0.5
					{Tables: []int{1, 2}, Sel: 0.02},
					{Tables: []int{2, 3}, Sel: 0.002},
					{Tables: []int{3, 4}, Sel: 0.002},
				},
			},
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				// The misestimated predicate joins last either way, so the
				// corrected optimum is the plan there was; alt tells the
				// refreshed entry apart.
				e.alt.alt.Store(true)
				truth := &joinorder.Query{Tables: e.q.Tables, Predicates: slices.Clone(e.q.Predicates)}
				truth.Predicates[0].Sel = 0.5
				ex, err := e.s.co.OptimizeExecuted(ctx, e.q, e.rv.opts, joinorder.ExecOptions{DataQuery: truth, DataSeed: 17, Feedback: true})
				if err != nil || ex.CorrectedQuery == nil {
					t.Fatalf("feedback execution: %v, corrected %v", err, ex)
				}
				e.s.co.Wait()
				if n := e.s.Snapshot().Cache.FeedbackRefreshes; n != 1 {
					t.Fatalf("%d feedback refreshes, want 1", n)
				}
				return nil, nil
			},
			noRecost: true,
		},
		{
			name: "ImportRecord of a peer's record",
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				mine, err := e.s.co.Optimize(ctx, e.q, e.rv.opts)
				if err != nil {
					t.Fatal(err)
				}
				theirs, err := reversed(e.q, mine)
				if err != nil {
					t.Fatal(err)
				}
				theirs.Plan.Order = e.rv.canon.ToCanonical(theirs.Plan.Order)
				val, err := json.Marshal(theirs)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.s.co.ImportRecord(persist.KindExact, e.rv.ekey, val); err != nil {
					t.Fatal(err)
				}
				return nil, nil
			},
		},
		{
			name: "Invalidate",
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				e.alt.alt.Store(true)
				if !e.s.co.Invalidate(e.q, e.rv.opts) {
					t.Fatal("nothing to invalidate")
				}
				return nil, nil
			},
		},
		{
			name:  "TTL expiry",
			cache: cache.Config{TTL: 300 * time.Millisecond},
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				e.alt.alt.Store(true)
				waitFor(t, func() bool { return !e.s.co.Holds(e.rv.ekey) })
				return nil, nil
			},
		},
		{
			name:  "eviction, then a re-solve",
			cache: cache.Config{MaxEntries: 1},
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				mustPost(t, e.s, "/v1/optimize", queryBody(t, workload.Star, 5, 9, func(r *OptimizeRequest) { r.Strategy = "dp-leftdeep" }))
				if e.s.co.Holds(e.rv.ekey) {
					t.Fatal("a second entry did not evict the first of a one-entry cache")
				}
				e.alt.alt.Store(true)
				return nil, nil
			},
		},
		{
			name: "another labeling of the same fingerprint",
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				rq := relabeled(e.q, []int{3, 5, 0, 6, 1, 4, 2})
				body, err := json.Marshal(&OptimizeRequest{Query: rq, Strategy: "dp-leftdeep"})
				if err != nil {
					t.Fatal(err)
				}
				return body, rq
			},
		},
		{
			name: "the same query under other options",
			change: func(t *testing.T, e *env) ([]byte, *joinorder.Query) {
				body, err := json.Marshal(&OptimizeRequest{Query: e.q, Strategy: "dp-leftdeep", Budget: &BudgetRequest{GapTol: 0.5}})
				if err != nil {
					t.Fatal(err)
				}
				// Another key, so another entry; alt gives it a plan of its own.
				e.alt.alt.Store(true)
				return body, e.q
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &env{alt: &altOptimizer{}, q: tc.query}
			tc.cache.Optimize = e.alt.fn
			e.s = mustServer(t, Config{Cache: tc.cache})
			if e.q == nil {
				e.q = workload.Generate(workload.Cycle, 7, 3, workload.Config{})
			}
			req := &OptimizeRequest{Query: e.q, Strategy: "dp-leftdeep"}
			if tc.req != nil {
				tc.req(req)
			}
			var err error
			if e.body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
			e.rv = resolveBody(t, e.s, e.body)

			old := checkAnswer(t, e.q, warmKept(t, e.s, e.body), true)
			if old == nil {
				t.FailNow()
			}
			body, q := tc.change(t, e)
			if body == nil {
				body, q = e.body, e.q
			}
			rv := resolveBody(t, e.s, body)
			keptBefore := e.s.Snapshot().ResponseTemplateHits
			for i := 0; i < 3; i++ {
				resp := checkAnswer(t, q, mustPost(t, e.s, "/v1/optimize", body), !tc.noRecost)
				if resp == nil {
					t.FailNow()
				}
				want, err := e.s.co.Optimize(ctx, q, rv.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(resp.Result.Plan.Order, want.Plan.Order) || resp.Result.Cost != want.Cost {
					t.Errorf("answer %d after the change: plan %v at %g, the cache holds %v at %g",
						i, resp.Result.Plan.Order, resp.Result.Cost, want.Plan.Order, want.Cost)
				}
				if slices.Equal(resp.Result.Plan.Order, old.Result.Plan.Order) && resp.Result.Cost == old.Result.Cost {
					t.Errorf("answer %d after the change is the answer from before it: plan %v at %g", i, old.Result.Plan.Order, old.Result.Cost)
				}
			}
			if e.s.Snapshot().ResponseTemplateHits == keptBefore {
				t.Error("three answers after the change and none written from kept bytes")
			}
			// The first text still answers for itself.
			if body2 := mustPost(t, e.s, "/v1/optimize", e.body); checkAnswer(t, e.q, body2, !tc.noRecost) == nil {
				t.Errorf("the first text now answers %s", body2)
			}
		})
	}
}

// TestKeptBytesUnderReplacement posts one body from 8 goroutines while its
// entry is replaced 1,000 times, alternating between two plans. Every answer
// must be one of the two in full — the oracle re-costs the plan it carries,
// so plan and cost cannot come from different entries — and the race
// detector watches the kept bytes change hands.
func TestKeptBytesUnderReplacement(t *testing.T) {
	const clients, replacements = 8, 1000
	s := mustServer(t, Config{MaxWorkers: clients, QueueDepth: 4 * clients})
	q := workload.Generate(workload.Chain, 8, 5, workload.Config{})
	body, err := json.Marshal(&OptimizeRequest{Query: q, Strategy: "dp-leftdeep"})
	if err != nil {
		t.Fatal(err)
	}
	first := checkAnswer(t, q, warmKept(t, s, body), true)
	if first == nil {
		t.FailNow()
	}
	rv := resolveBody(t, s, body)

	// The two versions of the entry, as a peer would replicate them.
	var vals [2][]byte
	var plans [2]*joinorder.Result
	plans[0] = first.Result
	if plans[1], err = reversed(q, first.Result); err != nil {
		t.Fatal(err)
	}
	for i, res := range plans {
		stored := *res
		stored.Plan = &joinorder.Plan{Order: rv.canon.ToCanonical(res.Plan.Order), Operators: res.Plan.Operators}
		stored.Tree = nil
		if vals[i], err = json.Marshal(&stored); err != nil {
			t.Fatal(err)
		}
	}
	if plans[0].Cost == plans[1].Cost {
		t.Fatal("the two versions cost the same; the test could not tell them apart")
	}

	var done atomic.Bool
	var seen [2]atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				rec := post(s, "/v1/optimize", body)
				if rec.Code != http.StatusOK {
					t.Errorf("%d %s", rec.Code, rec.Body)
					return
				}
				resp := checkAnswer(t, q, rec.Body.Bytes(), true)
				if resp == nil {
					return
				}
				which := slices.IndexFunc(plans[:], func(p *joinorder.Result) bool {
					return slices.Equal(p.Plan.Order, resp.Result.Plan.Order) && p.Cost == resp.Result.Cost
				})
				if which < 0 || !resp.CacheHit {
					t.Errorf("answer is neither version of the entry: %s", rec.Body)
					return
				}
				seen[which].Add(1)
			}
		}()
	}
	for i := 1; i <= replacements; i++ {
		if err := s.co.ImportRecord(persist.KindExact, rv.ekey, vals[i%2]); err != nil {
			t.Fatal(err)
		}
		// Let answers land on this version, so both kinds are seen and bytes
		// are kept in between replacements, not only rendered.
		for n := seen[i%2].Load(); i%50 == 0 && seen[i%2].Load() < n+2*clients && !t.Failed(); {
			time.Sleep(50 * time.Microsecond)
		}
	}
	done.Store(true)
	wg.Wait()
	snap := s.Snapshot()
	t.Logf("answers: %d of the first version, %d of the second; %d written from kept bytes, %d rendered",
		seen[0].Load(), seen[1].Load(), snap.ResponseTemplateHits, snap.ResponseTemplateRenders)
	if seen[0].Load() == 0 || seen[1].Load() == 0 || snap.ResponseTemplateHits == 0 {
		t.Errorf("the load saw %d/%d answers of the two versions and %d kept-byte hits; want all above zero",
			seen[0].Load(), seen[1].Load(), snap.ResponseTemplateHits)
	}
}

// poisonPooledBodies overwrites every request body buffer the pool holds,
// so anything still reading a released buffer reads garbage.
func poisonPooledBodies() {
	var held []*[]byte
	for {
		b := bodyBufs.Get().(*[]byte)
		if cap(*b) == 0 { // the pool's New: nothing left to take
			break
		}
		full := (*b)[:cap(*b)]
		for i := range full {
			full[i] = '#'
		}
		held = append(held, b)
	}
	for _, b := range held {
		bodyBufs.Put(b)
	}
}

// TestReleasedBodiesAreNotRead: a front end hands its body buffer back once
// the answer is written. Poisoning every released buffer between requests
// must change nothing — not the memo's text (a repeat still hits), not the
// decoded request a memo hit reuses, not a forwarded body, not a stream.
func TestReleasedBodiesAreNotRead(t *testing.T) {
	t.Run("one node", func(t *testing.T) {
		s := mustServer(t, Config{})
		q := workload.Generate(workload.Cycle, 6, 2, workload.Config{})
		body, err := json.Marshal(&OptimizeRequest{Query: q, Strategy: "dp-leftdeep", Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		var answers []string
		for i, path := range []string{
			"/v1/optimize",        // memo miss, solve
			"/v1/optimize",        // memo hit, plan hit, bytes kept
			"/v1/optimize/stream", // memo hit, kept bytes through the SSE writer
			"/v1/optimize",        // memo hit, kept bytes
		} {
			answer := mustPost(t, s, path, slices.Clone(body))
			if path == "/v1/optimize/stream" {
				events := readSSE(t, bytes.NewReader(answer))
				answer = []byte(events[len(events)-1].data)
			}
			if checkAnswer(t, q, answer, true) == nil {
				t.Fatalf("request %d (%s)", i, path)
			}
			if i > 0 { // the solve's own answer has another status line and no cache_hit
				answers = append(answers, timeless(t, answer))
			}
			poisonPooledBodies()
		}
		if answers[1] != answers[0] || answers[2] != answers[0] {
			t.Errorf("repeats differ:\n%s\n%s\n%s", answers[0], answers[1], answers[2])
		}
		if snap := s.Snapshot(); snap.RequestMemoHits != 3 || snap.ResponseTemplateHits != 2 {
			t.Errorf("request_memo_hits = %d, response_template_hits = %d; want 3, 2", snap.RequestMemoHits, snap.ResponseTemplateHits)
		}
		if rv, ok := s.memo.Get(body); !ok || rv.req.Tenant != "acme" || len(rv.q.Tables) != 6 {
			t.Errorf("the memo's copy of the request did not survive: found=%v %+v", ok, rv)
		}
	})
	t.Run("forwarded", func(t *testing.T) {
		tc := newTestCluster(t, 2, nil)
		for seed := int64(1); seed <= 4; seed++ {
			q, body := clusterQuery(t, seed)
			for node := range tc.servers {
				// In-process on the ingress node, so its buffers are this
				// goroutine's to poison; the hop itself is real HTTP.
				for pass := 0; pass < 2; pass++ {
					if checkAnswer(t, q, mustPost(t, tc.servers[node], "/v1/optimize", slices.Clone(body)), true) == nil {
						t.Fatalf("seed %d, node %d, pass %d", seed, node, pass)
					}
					poisonPooledBodies()
				}
			}
		}
		var forwards int64
		for _, s := range tc.servers {
			forwards += s.Snapshot().Cluster.Forwards
		}
		if forwards == 0 {
			t.Error("no request was forwarded")
		}
	})
}
