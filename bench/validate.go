package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/joinorder"
	"milpjoin/joinorder/server"
)

// hashSpec is the cost model every workload optimizes under: hash-join
// operator cost, the server's default and the paper's setting.
var hashSpec = cost.Spec{Metric: cost.OperatorCost, Op: cost.HashJoin, Params: cost.Params{}.WithDefaults()}

// relTol is the relative tolerance of every cost comparison.
const relTol = 1e-9

// exactRefTables is the largest query whose reference is the exact left-deep
// optimum; larger queries are checked against a greedy plan instead.
const exactRefTables = 14

// reference is the independent answer a result's cost is compared with.
type reference struct {
	cost float64
	// exact marks cost as the left-deep optimum, which bounds every
	// left-deep plan from below; a greedy reference bounds nothing.
	exact bool
}

// referenceFor computes q's reference under hashSpec.
func referenceFor(ctx context.Context, q *joinorder.Query) (reference, error) {
	if q.NumTables() <= exactRefTables {
		_, c, err := dp.OptimizeLeftDeep(ctx, q, hashSpec, dp.Options{})
		return reference{cost: c, exact: true}, err
	}
	_, c, err := dp.GreedyLeftDeep(q, hashSpec)
	return reference{cost: c}, err
}

// checkResult is the answer oracle behind ok_share. A result is correct when
// its plan is a permutation of q's tables, its Cost equals the exact
// re-evaluation of that plan, its proven bound does not exceed its objective,
// it is not cheaper than an exact reference, and, for a strategy that claims
// optimality (exactStrategy), it equals that reference.
func checkResult(q *joinorder.Query, res *joinorder.Result, ref reference, exactStrategy bool) error {
	if res == nil || res.Plan == nil {
		return fmt.Errorf("no plan")
	}
	n := q.NumTables()
	if len(res.Plan.Order) != n {
		return fmt.Errorf("plan orders %d tables, query has %d", len(res.Plan.Order), n)
	}
	seen := make([]bool, n)
	for _, t := range res.Plan.Order {
		if t < 0 || t >= n || seen[t] {
			return fmt.Errorf("plan order %v is not a permutation of the %d tables", res.Plan.Order, n)
		}
		seen[t] = true
	}
	exact, err := plan.Cost(q, res.Plan, hashSpec)
	if err != nil {
		return fmt.Errorf("re-costing plan: %w", err)
	}
	if math.Abs(res.Cost-exact) > relTol*math.Max(1, math.Abs(exact)) {
		return fmt.Errorf("reported cost %.12g, plan re-evaluates to %.12g", res.Cost, exact)
	}
	if res.Bound > res.Objective*(1+relTol) {
		return fmt.Errorf("bound %.12g exceeds objective %.12g", res.Bound, res.Objective)
	}
	if ref.exact && res.Cost < ref.cost*(1-relTol) {
		return fmt.Errorf("cost %.12g is below the left-deep optimum %.12g", res.Cost, ref.cost)
	}
	if ref.exact && exactStrategy && res.Cost > ref.cost*(1+relTol) {
		return fmt.Errorf("exact strategy returned cost %.12g, optimum is %.12g", res.Cost, ref.cost)
	}
	return nil
}

// checkReply is checkResult for a served answer: the status must be 200 and
// the body must decode into a result that passes the oracle. Every serving
// workload asks for dp-leftdeep, an exact strategy.
func checkReply(q *joinorder.Query, status int, body []byte, ref reference) (*server.OptimizeResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP status %d: %.200s", status, body)
	}
	var resp server.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	return &resp, checkResult(q, resp.Result, ref, true)
}
