package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
)

// outcome is what one front end told the client about one request,
// reduced to what every front end can express.
type outcome struct {
	code     string // error code; "" for a plan
	hint     bool   // the error carries retry_after_ms
	degraded bool
	queued   bool // queue_ms > 0
}

func planOutcome(resp *OptimizeResponse) outcome {
	return outcome{degraded: resp.Degraded, queued: resp.QueueMillis > 0}
}

func errorOutcome(e ErrorDetail) outcome {
	return outcome{code: e.Code, hint: e.RetryAfterMillis > 0}
}

// frontEnd drives one request through one endpoint in-process (so a
// canceled context still leaves an observable answer) and decodes it.
type frontEnd struct {
	name string
	// send also returns the JSON payload the outcome was read from, with
	// its timing fields blanked (see timeless), and, for a plan, the bytes
	// of the OptimizeResponse as this front end put them on the wire.
	send func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string, []byte)
}

// numberless cuts the values of elapsed_sec, queue_ms and total_ms out of
// the bytes of one OptimizeResponse, leaving every other byte as it is.
func numberless(t *testing.T, doc []byte) string {
	t.Helper()
	rs, re, ok := memberValue(doc, "result")
	if !ok {
		t.Fatalf("no result member in %s", doc)
	}
	cuts := [3][2]int{}
	for i, at := range []struct {
		obj  []byte
		base int
		key  string
	}{{doc[rs:re], rs, "elapsed_sec"}, {doc, 0, "queue_ms"}, {doc, 0, "total_ms"}} {
		vs, ve, ok := memberValue(at.obj, at.key)
		if !ok {
			t.Fatalf("no %s member in %s", at.key, doc)
		}
		cuts[i] = [2]int{at.base + vs, at.base + ve}
	}
	return string(doc[:cuts[0][0]]) + "#" + string(doc[cuts[0][1]:cuts[1][0]]) + "#" +
		string(doc[cuts[1][1]:cuts[2][0]]) + "#" + string(doc[cuts[2][1]:])
}

// timeless re-renders a JSON document with every field that depends on
// the clock set to zero, so two answers to the same request compare equal.
func timeless(t *testing.T, data []byte) string {
	t.Helper()
	var doc any
	decodeInto(t, data, &doc)
	var blank func(v any)
	blank = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				switch k {
				case "queue_ms", "total_ms", "elapsed_sec", "retry_after_ms":
					v[k] = 0
				default:
					blank(e)
				}
			}
		case []any:
			for _, e := range v {
				blank(e)
			}
		}
	}
	blank(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// primeMemo files req's wire form in the request memo without sending a
// request, so no counter moves. A body the gate would reject is left out,
// as the gate itself leaves it out.
func primeMemo(t *testing.T, s *Server, req *OptimizeRequest) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded OptimizeRequest
	decodeInto(t, raw, &decoded)
	if rv, herr := s.resolve(&decoded); herr == nil {
		s.memoize(raw, rv)
	}
}

func serveRecorded(t *testing.T, s *Server, ctx context.Context, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx))
	return rec
}

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

var frontEnds = []frontEnd{
	{"unary", func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string, []byte) {
		rec := serveRecorded(t, s, ctx, "/v1/optimize", req)
		body := strconv.Itoa(rec.Code) + " " + timeless(t, rec.Body.Bytes())
		if rec.Code != http.StatusOK {
			var env ErrorEnvelope
			decodeInto(t, rec.Body.Bytes(), &env)
			return errorOutcome(env.Err), body, nil
		}
		var resp OptimizeResponse
		decodeInto(t, rec.Body.Bytes(), &resp)
		return planOutcome(&resp), body, bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n"))
	}},
	{"stream", func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string, []byte) {
		rec := serveRecorded(t, s, ctx, "/v1/optimize/stream", req)
		if rec.Code != http.StatusOK {
			// Gate failures precede the stream and answer as plain HTTP.
			var env ErrorEnvelope
			decodeInto(t, rec.Body.Bytes(), &env)
			return errorOutcome(env.Err), strconv.Itoa(rec.Code) + " " + timeless(t, rec.Body.Bytes()), nil
		}
		events := readSSE(t, rec.Body)
		if len(events) == 0 {
			t.Fatal("stream carried no events")
		}
		last := events[len(events)-1]
		body := last.name + " " + timeless(t, []byte(last.data))
		switch last.name {
		case "error":
			var env ErrorEnvelope
			decodeInto(t, []byte(last.data), &env)
			return errorOutcome(env.Err), body, nil
		case "result":
			var resp OptimizeResponse
			decodeInto(t, []byte(last.data), &resp)
			return planOutcome(&resp), body, []byte(last.data)
		}
		t.Fatalf("stream ended with %q event", last.name)
		return outcome{}, "", nil
	}},
	{"batch", func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string, []byte) {
		rec := serveRecorded(t, s, ctx, "/v1/optimize/batch", BatchRequest{Queries: []OptimizeRequest{*req}})
		if rec.Code != http.StatusOK {
			t.Fatalf("batch status = %d: %s", rec.Code, rec.Body)
		}
		var out BatchResponse
		decodeInto(t, rec.Body.Bytes(), &out)
		if len(out.Results) != 1 {
			t.Fatalf("batch answered %d items, want 1", len(out.Results))
		}
		body := timeless(t, rec.Body.Bytes())
		if it := out.Results[0]; it.Error != nil {
			return errorOutcome(*it.Error), body, nil
		}
		var wire struct {
			Results []struct {
				Response json.RawMessage `json:"response"`
			} `json:"results"`
		}
		decodeInto(t, rec.Body.Bytes(), &wire)
		return planOutcome(out.Results[0].Response), body, wire.Results[0].Response
	}},
}

// pipelineCounters are the Snapshot counters the shared pipeline owns;
// per-front-end ones (streams, batches) and timing sums are left out.
type pipelineCounters struct {
	Requests, OK, Degraded, Shed, Rejected, RateLimited, BadRequest int64
	Canceled, Timeouts, Failed, DrainReject, Solves, Portfolio      int64
}

func countersOf(s *Server) pipelineCounters {
	n := s.Snapshot()
	return pipelineCounters{
		n.Requests, n.OK, n.Degraded, n.Shed, n.Rejected, n.RateLimited, n.BadRequest,
		n.Canceled, n.Timeouts, n.Failed, n.DrainReject, n.Solves, n.Portfolio,
	}
}

// TestFrontEndParity drives the same scenarios through /v1/optimize,
// /v1/optimize/stream and a one-item /v1/optimize/batch: the three are
// decode/encode shells over one gate → route → admit → solve pipeline,
// so each must report the same error code, retry hint, degraded flag and
// queueing, and leave the same counters behind. Every scenario runs twice
// per front end, with the probe's body first unseen and then already in
// the request memo: a memo hit must be indistinguishable on the wire,
// timing fields aside, and in the counters. (Batch items never consult the
// memo; their second pass pins that priming it changes nothing for them.)
// Whenever the answer is a plan, its OptimizeResponse is the same bytes on
// all three front ends and both passes but for elapsed_sec, queue_ms and
// total_ms — also when two of them write bytes kept by an earlier hit and
// the batch renders afresh ("plan cache hit") — and every scenario leaves
// the counters it left before responses rendered themselves.
func TestFrontEndParity(t *testing.T) {
	strict := false
	milp := func(r *OptimizeRequest) { r.Strategy = "milp"; r.Timeout = "30s" }
	queuedIs := func(s *Server, n int) func() bool {
		return func() bool { _, queued := s.adm.load(); return queued == n }
	}

	for _, sc := range []struct {
		name string
		// occupy parks that many blocked solves first: 1 holds the only
		// worker, 2 also fills the one-deep queue.
		occupy int
		before func(s *Server)
		probe  func(r *OptimizeRequest)
		// seed runs once the probe is built, before anything is sent.
		seed func(t *testing.T, s *Server, probe *OptimizeRequest)
		// warm sends the probe that many times through the unary front end
		// first, so the probe proper finds what repeats of its text leave.
		warm int
		// during runs while the probe is in flight.
		during func(t *testing.T, s *Server, release, cancel func())
		want   outcome
		// counters is what the scenario leaves behind, on every front end:
		// the literals the pipeline produced before this file's renderer.
		counters pipelineCounters
	}{
		{
			name:     "bad query",
			probe:    func(r *OptimizeRequest) { r.Query = nil; r.SQL = "SELECT 1" },
			want:     outcome{code: CodeBadRequest},
			counters: pipelineCounters{Requests: 1, BadRequest: 1},
		},
		{
			name:     "rate-limited tenant",
			before:   func(s *Server) { s.tb.allow("acme", time.Now()) },
			probe:    func(r *OptimizeRequest) { r.Tenant = "acme" },
			want:     outcome{code: CodeRateLimited, hint: true},
			counters: pipelineCounters{Requests: 1, RateLimited: 1},
		},
		{
			name:     "saturated, degradable",
			occupy:   2,
			probe:    milp,
			want:     outcome{degraded: true},
			counters: pipelineCounters{Requests: 3, OK: 3, Degraded: 1, Shed: 1, Solves: 2},
		},
		{
			name:     "saturated, strict",
			occupy:   2,
			probe:    func(r *OptimizeRequest) { milp(r); r.AllowDegraded = &strict },
			want:     outcome{code: CodeSaturated, hint: true},
			counters: pipelineCounters{Requests: 3, OK: 2, Rejected: 1, Solves: 2},
		},
		{
			name:     "deadline spent in the queue, degradable",
			occupy:   1,
			probe:    func(r *OptimizeRequest) { milp(r); r.Timeout = "80ms" },
			want:     outcome{degraded: true},
			counters: pipelineCounters{Requests: 2, OK: 2, Degraded: 1, Shed: 1, Solves: 1},
		},
		{
			name:     "deadline spent in the queue, strict",
			occupy:   1,
			probe:    func(r *OptimizeRequest) { milp(r); r.Timeout = "80ms"; r.AllowDegraded = &strict },
			want:     outcome{code: CodeTimeout, hint: true},
			counters: pipelineCounters{Requests: 2, OK: 1, Timeouts: 1, Solves: 1},
		},
		{
			name:   "client gone while queued",
			occupy: 1,
			probe:  milp,
			during: func(t *testing.T, s *Server, release, cancel func()) {
				waitFor(t, queuedIs(s, 1))
				cancel()
			},
			want:     outcome{code: CodeClientClosed},
			counters: pipelineCounters{Requests: 2, OK: 1, Canceled: 1, Solves: 1},
		},
		{
			name:   "queued behind a blocked worker",
			occupy: 1,
			probe:  milp,
			during: func(t *testing.T, s *Server, release, cancel func()) {
				waitFor(t, queuedIs(s, 1))
				time.Sleep(2 * time.Millisecond)
				release()
			},
			want:     outcome{queued: true},
			counters: pipelineCounters{Requests: 2, OK: 2, Solves: 2},
		},
		{
			// The probe's entry is resident and its text has been answered
			// twice already, so unary and stream write kept bytes while the
			// batch item, which no memo holds, renders in full.
			name: "plan cache hit",
			seed: func(t *testing.T, s *Server, probe *OptimizeRequest) {
				raw, err := json.Marshal(probe)
				if err != nil {
					t.Fatal(err)
				}
				rv := resolveBody(t, s, raw)
				val, err := json.Marshal(&joinorder.Result{
					Strategy: "greedy", Status: joinorder.StatusOptimal,
					Plan: fakePlan(probe.Query.NumTables()), Cost: 1000, Objective: 1000, Bound: 1000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.co.ImportRecord(persist.KindExact, rv.ekey, val); err != nil {
					t.Fatal(err)
				}
			},
			warm:     2,
			want:     outcome{queued: true}, // admitted at once, in more than zero nanoseconds
			counters: pipelineCounters{Requests: 3, OK: 3, Solves: 3},
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var wire string // the first plan answer of the scenario, numberless
			for _, fe := range frontEnds {
				var unseen string
				for _, memoized := range []bool{false, true} {
					name := fe.name
					if memoized {
						name += " (memo hit)"
					}
					bo := newBlockingOptimizer()
					s := mustServer(t, Config{
						MaxWorkers:  1,
						QueueDepth:  1,
						TenantRate:  0.001,
						TenantBurst: 1 + sc.warm, // the warm-ups bill the probe's tenant
						Cache: cache.Config{
							Optimize:         bo.fn,
							DegradeUnder:     50 * time.Millisecond,
							BackgroundBudget: 500 * time.Millisecond,
						},
					})
					var once sync.Once
					release := func() { once.Do(func() { close(bo.release) }) }
					if sc.before != nil {
						sc.before(s)
					}

					// Occupants always arrive through the unary front end, each
					// as its own tenant and with its own query.
					var occupants sync.WaitGroup
					for k := 0; k < sc.occupy; k++ {
						occ := &OptimizeRequest{Query: workload.Generate(workload.Chain, 6+k, int64(k+1), workload.Config{}), Tenant: string(rune('a' + k))}
						milp(occ)
						occupants.Add(1)
						go func() {
							defer occupants.Done()
							serveRecorded(t, s, context.Background(), "/v1/optimize", occ)
						}()
						if k == 0 {
							<-bo.started
						} else {
							waitFor(t, queuedIs(s, k))
						}
					}

					probe := &OptimizeRequest{Query: workload.Generate(workload.Star, 8, 3, workload.Config{}), Strategy: "greedy", Timeout: "2s"}
					if sc.probe != nil {
						sc.probe(probe)
					}
					if sc.seed != nil {
						sc.seed(t, s, probe)
					}
					if memoized {
						primeMemo(t, s, probe)
					}
					for k := 0; k < sc.warm; k++ {
						if rec := serveRecorded(t, s, context.Background(), "/v1/optimize", probe); rec.Code != http.StatusOK {
							t.Fatalf("%s: warm-up %d: %d %s", name, k, rec.Code, rec.Body)
						}
					}
					type answer struct {
						o    outcome
						body string
						wire []byte
					}
					ctx, cancel := context.WithCancel(context.Background())
					got := make(chan answer, 1)
					go func() {
						defer close(got) // a Fatal inside send must not hang the receive below
						o, body, wire := fe.send(t, s, ctx, probe)
						got <- answer{o, body, wire}
					}()
					if sc.during != nil {
						sc.during(t, s, release, cancel)
					}
					a := <-got
					if a.o != sc.want {
						t.Errorf("%s: outcome = %+v, want %+v", name, a.o, sc.want)
					}
					if !memoized {
						unseen = a.body
					} else if a.body != unseen {
						t.Errorf("%s answered\n%s\nbut on first sight\n%s", name, a.body, unseen)
					}
					if a.wire != nil {
						if w := numberless(t, a.wire); wire == "" {
							wire = w
						} else if w != wire {
							t.Errorf("%s wrote\n%s\nthe first front end\n%s", name, w, wire)
						}
					}
					cancel()

					release()
					occupants.Wait()
					drainCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
					if err := s.Drain(drainCtx); err != nil {
						t.Fatalf("%s: drain: %v", name, err)
					}
					stop()

					// The probe's text reaches the memo once per warm-up and, off
					// the batch front end, once more; every arrival after the first
					// is a hit, and the first too when the text was primed — unless
					// the gate rejects the body, which is then never held. Of the
					// plain hits among them, all but the first write kept bytes.
					snap := s.Snapshot()
					arrivals := int64(sc.warm)
					if fe.name != "batch" {
						arrivals++
					}
					wantMemo, wantKept := arrivals, int64(0)
					if !memoized {
						wantMemo = max(arrivals-1, 0)
					}
					if sc.want.code == CodeBadRequest {
						wantMemo = 0
					}
					if sc.warm > 0 {
						wantKept = arrivals - 1
					}
					if snap.RequestMemoHits != wantMemo || snap.ResponseTemplateHits != wantKept ||
						snap.ResponseTemplateHits+snap.ResponseTemplateRenders != snap.OK {
						t.Errorf("%s: request_memo_hits = %d, want %d; response_template_hits = %d, want %d; renders = %d with %d ok",
							name, snap.RequestMemoHits, wantMemo, snap.ResponseTemplateHits, wantKept, snap.ResponseTemplateRenders, snap.OK)
					}
					if c := countersOf(s); c != sc.counters {
						t.Errorf("%s counters = %+v, want %+v", name, c, sc.counters)
					}
				}
			}
		})
	}
}

// TestBatchAutoItemsHoldPortfolioWeight: batch items are admitted one by
// one with their own requestWeight, so strategy=auto items (one unit per
// portfolio member) run one at a time on a four-worker pool instead of
// racing four members per slot.
func TestBatchAutoItemsHoldPortfolioWeight(t *testing.T) {
	bo := newBlockingOptimizer()
	s := mustServer(t, Config{MaxWorkers: 4, Cache: cache.Config{Optimize: bo.fn}})

	const items = 3
	breq := BatchRequest{Queries: make([]OptimizeRequest, items)}
	for i := range breq.Queries {
		breq.Queries[i] = OptimizeRequest{
			Query: workload.Generate(workload.Chain, 6+i, int64(i+1), workload.Config{}), Strategy: "auto", Timeout: "30s",
		}
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serveRecorded(t, s, context.Background(), "/v1/optimize/batch", breq) }()

	<-bo.started
	waitFor(t, func() bool { return s.Snapshot().QueuedJobs == items-1 })
	if snap := s.Snapshot(); snap.RunningSolves != 4 || bo.calls.Load() != 1 {
		t.Errorf("with %d auto items pending: %d weight units held by %d solves, want 4 held by 1",
			items, snap.RunningSolves, bo.calls.Load())
	}
	close(bo.release)

	var out BatchResponse
	decodeInto(t, (<-done).Body.Bytes(), &out)
	for i, it := range out.Results {
		if it.Response == nil || it.Response.Result == nil {
			t.Errorf("item %d unanswered: %+v", i, it.Error)
		}
	}
	if snap := s.Snapshot(); snap.Portfolio != items || snap.RunningSolves != 0 {
		t.Errorf("portfolio_requests = %d, running = %d; want %d, 0", snap.Portfolio, snap.RunningSolves, items)
	}
}

// TestBatchNeverShedsItself: the fan-out keeps at most MaxWorkers items
// in flight, so the largest allowed batch on an idle one-worker server
// is answered in full without touching the shed path.
func TestBatchNeverShedsItself(t *testing.T) {
	s := mustServer(t, Config{MaxWorkers: 1})
	breq := BatchRequest{Queries: make([]OptimizeRequest, maxBatchItems)}
	for i := range breq.Queries {
		breq.Queries[i] = OptimizeRequest{
			Query: workload.Generate(workload.Chain, 4+i%4, int64(i), workload.Config{}), Strategy: "greedy",
		}
	}
	rec := serveRecorded(t, s, context.Background(), "/v1/optimize/batch", breq)
	var out BatchResponse
	decodeInto(t, rec.Body.Bytes(), &out)
	if len(out.Results) != maxBatchItems {
		t.Fatalf("batch answered %d items, want %d", len(out.Results), maxBatchItems)
	}
	for i, it := range out.Results {
		if it.Response == nil || it.Response.Result == nil || it.Response.Degraded {
			t.Fatalf("item %d not a full answer: %+v", i, it)
		}
	}
	if snap := s.Snapshot(); snap.Shed != 0 || snap.Rejected != 0 || snap.OK != maxBatchItems {
		t.Errorf("shed=%d rejected=%d ok=%d, want 0/0/%d", snap.Shed, snap.Rejected, snap.OK, maxBatchItems)
	}
}

// TestRequestIDSpelling pins the id format the request log has always
// used, now that it is appended rather than formatted.
func TestRequestIDSpelling(t *testing.T) {
	for _, n := range []int64{1, 9, 10, 99999, 100000, 999999, 1000000, 123456789} {
		if got, want := requestID(n), fmt.Sprintf("r%06d", n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}
