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
	"milpjoin/joinorder/cache"
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
	// its timing fields blanked (see timeless).
	send func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string)
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
		s.memo.Put(raw, rv, 0)
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
	{"unary", func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string) {
		rec := serveRecorded(t, s, ctx, "/v1/optimize", req)
		body := strconv.Itoa(rec.Code) + " " + timeless(t, rec.Body.Bytes())
		if rec.Code != http.StatusOK {
			var env ErrorEnvelope
			decodeInto(t, rec.Body.Bytes(), &env)
			return errorOutcome(env.Err), body
		}
		var resp OptimizeResponse
		decodeInto(t, rec.Body.Bytes(), &resp)
		return planOutcome(&resp), body
	}},
	{"stream", func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string) {
		rec := serveRecorded(t, s, ctx, "/v1/optimize/stream", req)
		if rec.Code != http.StatusOK {
			// Gate failures precede the stream and answer as plain HTTP.
			var env ErrorEnvelope
			decodeInto(t, rec.Body.Bytes(), &env)
			return errorOutcome(env.Err), strconv.Itoa(rec.Code) + " " + timeless(t, rec.Body.Bytes())
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
			return errorOutcome(env.Err), body
		case "result":
			var resp OptimizeResponse
			decodeInto(t, []byte(last.data), &resp)
			return planOutcome(&resp), body
		}
		t.Fatalf("stream ended with %q event", last.name)
		return outcome{}, ""
	}},
	{"batch", func(t *testing.T, s *Server, ctx context.Context, req *OptimizeRequest) (outcome, string) {
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
			return errorOutcome(*it.Error), body
		}
		return planOutcome(out.Results[0].Response), body
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
		// during runs while the probe is in flight.
		during func(t *testing.T, s *Server, release, cancel func())
		want   outcome
	}{
		{
			name:  "bad query",
			probe: func(r *OptimizeRequest) { r.Query = nil; r.SQL = "SELECT 1" },
			want:  outcome{code: CodeBadRequest},
		},
		{
			name:   "rate-limited tenant",
			before: func(s *Server) { s.tb.allow("acme", time.Now()) },
			probe:  func(r *OptimizeRequest) { r.Tenant = "acme" },
			want:   outcome{code: CodeRateLimited, hint: true},
		},
		{
			name:   "saturated, degradable",
			occupy: 2,
			probe:  milp,
			want:   outcome{degraded: true},
		},
		{
			name:   "saturated, strict",
			occupy: 2,
			probe:  func(r *OptimizeRequest) { milp(r); r.AllowDegraded = &strict },
			want:   outcome{code: CodeSaturated, hint: true},
		},
		{
			name:   "deadline spent in the queue, degradable",
			occupy: 1,
			probe:  func(r *OptimizeRequest) { milp(r); r.Timeout = "80ms" },
			want:   outcome{degraded: true},
		},
		{
			name:   "deadline spent in the queue, strict",
			occupy: 1,
			probe:  func(r *OptimizeRequest) { milp(r); r.Timeout = "80ms"; r.AllowDegraded = &strict },
			want:   outcome{code: CodeTimeout, hint: true},
		},
		{
			name:   "client gone while queued",
			occupy: 1,
			probe:  milp,
			during: func(t *testing.T, s *Server, release, cancel func()) {
				waitFor(t, queuedIs(s, 1))
				cancel()
			},
			want: outcome{code: CodeClientClosed},
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
			want: outcome{queued: true},
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var first pipelineCounters
			for i, fe := range frontEnds {
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
						TenantBurst: 1,
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
					sc.probe(probe)
					if memoized {
						primeMemo(t, s, probe)
					}
					type answer struct {
						o    outcome
						body string
					}
					ctx, cancel := context.WithCancel(context.Background())
					got := make(chan answer, 1)
					go func() {
						defer close(got) // a Fatal inside send must not hang the receive below
						o, body := fe.send(t, s, ctx, probe)
						got <- answer{o, body}
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
					cancel()

					release()
					occupants.Wait()
					drainCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
					if err := s.Drain(drainCtx); err != nil {
						t.Fatalf("%s: drain: %v", name, err)
					}
					stop()

					// The primed pass must really have been a memo hit: exactly
					// the probe, unless the gate rejects its body (never primed).
					if hits := s.Snapshot().RequestMemoHits; fe.name != "batch" && (hits == 1) != (memoized && sc.want.code != CodeBadRequest) {
						t.Errorf("%s: request_memo_hits = %d", name, hits)
					}
					if c := countersOf(s); i == 0 && !memoized {
						first = c
					} else if c != first {
						t.Errorf("%s counters = %+v\n%s counters = %+v", name, c, frontEnds[0].name, first)
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
