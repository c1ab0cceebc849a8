// Package portfolio provides the shared incumbent bus for racing several
// join-ordering strategies on one query: members publish every plan they
// find with its exact cost, the bus keeps the global best, and the MILP
// member takes it at branch-and-bound node boundaries with latest-wins
// semantics — a publisher never waits for the reader, and a reader that
// falls behind skips straight to the newest incumbent. Strategies with
// proven lower bounds publish those too, so the race can report a
// portfolio-wide optimality gap.
package portfolio

import (
	"math"
	"sync"

	"milpjoin/internal/plan"
)

// Bus is the shared incumbent state of one strategy race. The zero value
// is not ready; use NewBus.
type Bus struct {
	mu        sync.Mutex
	bestPlan  *plan.Plan
	bestCost  float64
	bestFrom  string
	untaken   bool // bestPlan has not been returned by Take yet
	bound     float64
	boundFrom string
}

// NewBus returns an empty bus: no incumbent (+Inf) and no bound (-Inf).
func NewBus() *Bus {
	return &Bus{bestCost: math.Inf(1), bound: math.Inf(-1)}
}

// Publish offers a plan found by member from at the given exact cost. It
// returns true when the plan strictly improves the portfolio incumbent,
// which the next Take then returns. Plans must be treated as immutable
// after publication.
func (b *Bus) Publish(from string, p *plan.Plan, cost float64) bool {
	if p == nil || math.IsNaN(cost) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cost >= b.bestCost {
		return false
	}
	b.bestPlan, b.bestCost, b.bestFrom = p, cost, from
	b.untaken = true
	return true
}

// Take returns the incumbent if it changed since the last Take, and nil
// otherwise: a reader that calls it late still gets the current best, and
// no plan is returned twice. Safe for concurrent use.
func (b *Bus) Take() *plan.Plan {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.untaken {
		return nil
	}
	b.untaken = false
	return b.bestPlan
}

// PublishBound offers a proven lower bound on the optimal plan cost from
// member from, keeping the tightest (largest) bound seen.
func (b *Bus) PublishBound(from string, bound float64) {
	if math.IsNaN(bound) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if bound <= b.bound {
		return
	}
	b.bound, b.boundFrom = bound, from
}

// Best returns the portfolio incumbent: plan, exact cost, and the member
// that found it (nil, +Inf, "" while none).
func (b *Bus) Best() (*plan.Plan, float64, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bestPlan, b.bestCost, b.bestFrom
}

// BestBound returns the tightest proven lower bound and its member (-Inf,
// "" while none).
func (b *Bus) BestBound() (float64, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bound, b.boundFrom
}

// BestCost returns the incumbent cost alone; it is the cutoff hook shape
// pruning searches (dp.BushyOptions.Cutoff) expect.
func (b *Bus) BestCost() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bestCost
}
