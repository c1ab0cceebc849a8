package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/server"
)

// oracleFixture returns a query, its reference and a correct exact answer.
func oracleFixture(t *testing.T) (*joinorder.Query, reference, joinorder.Result) {
	t.Helper()
	ctx := context.Background()
	q := workload.Generate(workload.Chain, 6, 7, workload.Config{})
	ref, err := referenceFor(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.exact {
		t.Fatal("a 6-table query must get an exact reference")
	}
	res, err := joinorder.Optimize(ctx, q, servedOptions)
	if err != nil {
		t.Fatal(err)
	}
	return q, ref, *res
}

func TestOracleAcceptsCorrectAnswer(t *testing.T) {
	q, ref, res := oracleFixture(t)
	if err := checkResult(q, &res, ref, true); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
}

func TestOracleCountsFailures(t *testing.T) {
	q, ref, good := oracleFixture(t)
	// A plan that is valid but not optimal, with its true cost.
	var worse joinorder.Result
	for i := 1; i < q.NumTables(); i++ {
		order := append([]int(nil), good.Plan.Order...)
		order[0], order[i] = order[i], order[0]
		c, err := plan.Cost(q, &plan.Plan{Order: order}, hashSpec)
		if err != nil {
			t.Fatal(err)
		}
		if c > ref.cost*(1+1e-6) {
			worse = good
			worse.Plan = &plan.Plan{Order: order}
			worse.Cost, worse.Objective, worse.Bound = c, c, ref.cost
			break
		}
	}
	if worse.Plan == nil {
		t.Fatal("fixture has no suboptimal neighbour plan")
	}
	if err := checkResult(q, &worse, ref, false); err != nil {
		t.Fatalf("a suboptimal plan with its true cost is a correct anytime answer, got: %v", err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(r *joinorder.Result)
		exact  bool
		want   string
	}{
		{"swapped table", func(r *joinorder.Result) {
			order := append([]int(nil), r.Plan.Order...)
			order[1] = order[0] // one table twice, another missing
			r.Plan = &plan.Plan{Order: order}
		}, true, "not a permutation"},
		{"missing table", func(r *joinorder.Result) {
			r.Plan = &plan.Plan{Order: r.Plan.Order[1:]}
		}, true, "plan orders"},
		{"perturbed cost", func(r *joinorder.Result) { r.Cost *= 1 + 1e-6 }, true, "re-evaluates"},
		{"inflated bound", func(r *joinorder.Result) { r.Bound = r.Objective * 1.001 }, true, "exceeds objective"},
		{"no plan", func(r *joinorder.Result) { r.Plan = nil }, true, "no plan"},
		{"suboptimal from an exact strategy", func(r *joinorder.Result) { *r = worse }, true, "optimum is"},
	} {
		res := good
		tc.mutate(&res)
		err := checkResult(q, &res, ref, tc.exact)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A cost below the optimum can only come with a wrong reference or a
	// wrong coster; the oracle reports it.
	low := reference{cost: ref.cost * 2, exact: true}
	if err := checkResult(q, &good, low, false); err == nil || !strings.Contains(err.Error(), "below") {
		t.Errorf("cost below the reference optimum: got %v", err)
	}
}

func TestOracleChecksReplies(t *testing.T) {
	q, ref, good := oracleFixture(t)
	body, err := json.Marshal(server.OptimizeResponse{Result: &good, CacheHit: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := checkReply(q, http.StatusOK, body, ref)
	if err != nil || !resp.CacheHit {
		t.Fatalf("correct reply rejected: %v", err)
	}
	if _, err := checkReply(q, http.StatusTooManyRequests, []byte(`{"error":{"code":"saturated"}}`), ref); err == nil {
		t.Error("a non-200 reply must count as a failure")
	}
	if _, err := checkReply(q, http.StatusOK, []byte(`{"result":`), ref); err == nil {
		t.Error("an undecodable reply must count as a failure")
	}
}
