package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
)

// loadClient is an HTTP client sized for hundreds of concurrent
// connections to one host.
func loadClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 1024
	tr.MaxIdleConnsPerHost = 1024
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// TestLoadSmokeConcurrentInflight is the admission-control acceptance
// check: the daemon holds ≥ 500 concurrent in-flight requests — verified
// server-side, workers running plus requests queued — and answers every
// single one with a plan. The request memo runs at capacity meanwhile (32
// texts for 50 distinct bodies): evicting under load loses no request, and
// repeats of a resident body are memo hits.
func TestLoadSmokeConcurrentInflight(t *testing.T) {
	const clients = 500

	// The underlying solves block until released, so every request piles
	// up inside the server: a few holding workers, the rest queued.
	release := make(chan struct{})
	s := mustServer(t, Config{
		MaxWorkers: 8,
		QueueDepth: clients, // nothing sheds in this phase
		Cache: cache.Config{
			MaxEntries: 8,
			Optimize: func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, fmt.Errorf("%w: %w", joinorder.ErrCanceled, ctx.Err())
				}
				return &joinorder.Result{
					Strategy: opts.Strategy, Status: joinorder.StatusFeasible,
					Plan: fakePlan(q.NumTables()), Cost: 1,
				}, nil
			},
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := loadClient()

	// 50 distinct queries × 10 clients each: coalescing dedups solves but
	// every waiter still occupies an admission slot.
	bodies := make([][]byte, 50)
	for i := range bodies {
		bodies[i] = queryBody(t, workload.Chain, 5+i%8, int64(i), func(r *OptimizeRequest) {
			r.Strategy = "milp"
			r.Timeout = "25s"
		})
	}

	var (
		wg       sync.WaitGroup
		answered atomic.Int64
		failed   atomic.Int64
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Consecutive clients share a body, so a repeat arrives while the
			// text is still resident in the undersized memo.
			resp, err := client.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(bodies[i*len(bodies)/clients]))
			if err != nil {
				failed.Add(1)
				return
			}
			defer resp.Body.Close()
			var out OptimizeResponse
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&out) == nil &&
				out.Result != nil && out.Result.Plan != nil {
				answered.Add(1)
			} else {
				failed.Add(1)
			}
		}(i)
	}

	// Wait until all 500 are in flight inside the server, then release.
	deadline := time.Now().Add(20 * time.Second)
	for {
		running, queued := s.adm.load()
		if running+queued >= clients {
			t.Logf("peak in-flight: %d running + %d queued", running, queued)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d running + %d queued after 20s, want ≥ %d", running, queued, clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := answered.Load(); got != clients || failed.Load() != 0 {
		t.Fatalf("answered=%d failed=%d, want %d/0", got, failed.Load(), clients)
	}
	snap := s.Snapshot()
	t.Logf("request memo: %d hits, %d misses, %d evictions", snap.RequestMemoHits, snap.RequestMemoMisses, snap.RequestMemoEvictions)
	if snap.RequestMemoHits == 0 || snap.RequestMemoEvictions == 0 {
		t.Errorf("request_memo_hits = %d, request_memo_evictions = %d; want both above zero with the memo at capacity",
			snap.RequestMemoHits, snap.RequestMemoEvictions)
	}
}

// TestLoadSmokeOverloadEveryRequestAnswered drives a deliberately
// under-provisioned server far past saturation and checks the shed
// contract: every request receives a plan, a degraded plan, or a 429 —
// never a hang, never an unexplained failure.
func TestLoadSmokeOverloadEveryRequestAnswered(t *testing.T) {
	const clients = 300

	s := mustServer(t, Config{
		MaxWorkers: 2,
		QueueDepth: 8,
		Cache: cache.Config{
			Optimize: func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
				if opts.Strategy != "greedy" { // fallback answers instantly
					select {
					case <-time.After(5 * time.Millisecond):
					case <-ctx.Done():
						return nil, fmt.Errorf("%w: %w", joinorder.ErrCanceled, ctx.Err())
					}
				}
				return &joinorder.Result{
					Strategy: opts.Strategy, Status: joinorder.StatusFeasible,
					Plan: fakePlan(q.NumTables()), Cost: 1,
				}, nil
			},
			DegradeUnder:     20 * time.Millisecond,
			BackgroundBudget: 100 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := loadClient()

	var (
		wg                      sync.WaitGroup
		full, degraded, shed429 atomic.Int64
		other                   atomic.Int64
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := queryBody(t, workload.Star, 5+i%10, int64(i), func(r *OptimizeRequest) {
				r.Strategy = "milp"
				r.Timeout = "5s"
				if i%7 == 0 { // a slice of strict clients that refuse degradation
					no := false
					r.AllowDegraded = &no
				}
			})
			resp, err := client.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var out OptimizeResponse
				if json.NewDecoder(resp.Body).Decode(&out) != nil || out.Result == nil || out.Result.Plan == nil {
					other.Add(1)
				} else if out.Degraded {
					degraded.Add(1)
				} else {
					full.Add(1)
				}
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					other.Add(1)
				} else {
					shed429.Add(1)
				}
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()

	t.Logf("full=%d degraded=%d 429=%d other=%d", full.Load(), degraded.Load(), shed429.Load(), other.Load())
	if other.Load() != 0 {
		t.Fatalf("%d requests got an answer outside the contract", other.Load())
	}
	if full.Load()+degraded.Load()+shed429.Load() != clients {
		t.Fatalf("answered %d of %d", full.Load()+degraded.Load()+shed429.Load(), clients)
	}
	if degraded.Load() == 0 {
		t.Error("overload produced no degraded plans — shed path untested")
	}

	// Background refines from the degraded path must drain cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after overload: %v", err)
	}
}
