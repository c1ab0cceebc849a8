// Package portfolio provides the shared incumbent bus for racing several
// join-ordering strategies on one query: members publish every plan they
// find with its exact cost, the bus keeps the global best, and subscribers
// (the MILP branch-and-bound injection feed, primarily) receive improving
// plans with latest-wins semantics — a slow consumer never blocks a
// publisher, it just skips straight to the newest incumbent. Strategies
// with proven lower bounds publish those too, so the race can report a
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
	closed    bool
	bestPlan  *plan.Plan
	bestCost  float64
	bestFrom  string
	bound     float64
	boundFrom string
	subs      []*subscriber
	published int
	improved  int
}

type subscriber struct {
	skip string // member name whose publications are not echoed back
	ch   chan *plan.Plan
}

// NewBus returns an empty bus: no incumbent (+Inf) and no bound (-Inf).
func NewBus() *Bus {
	return &Bus{bestCost: math.Inf(1), bound: math.Inf(-1)}
}

// Publish offers a plan found by member from at the given exact cost. It
// returns true when the plan strictly improves the portfolio incumbent, in
// which case every subscriber (except from's own feed) receives it. Plans
// must be treated as immutable after publication. Publishing on a closed
// bus is a no-op.
func (b *Bus) Publish(from string, p *plan.Plan, cost float64) bool {
	if p == nil || math.IsNaN(cost) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.published++
	if b.closed || cost >= b.bestCost {
		return false
	}
	b.bestPlan, b.bestCost, b.bestFrom = p, cost, from
	b.improved++
	for _, s := range b.subs {
		if s.skip == from {
			continue
		}
		// Latest-wins: drop the stale plan (if any) and slot in the new
		// incumbent. The second send can only fail if a concurrent
		// receive-and-refill raced us, in which case the channel already
		// holds a fresher-or-equal plan.
		select {
		case s.ch <- p:
		default:
			select {
			case <-s.ch:
			default:
			}
			select {
			case s.ch <- p:
			default:
			}
		}
	}
	return true
}

// PublishBound offers a proven lower bound on the optimal plan cost from
// member from, keeping the tightest (largest) bound seen.
func (b *Bus) PublishBound(from string, bound float64) {
	if math.IsNaN(bound) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || bound <= b.bound {
		return
	}
	b.bound, b.boundFrom = bound, from
}

// Subscribe registers an incumbent feed for member skip: improving plans
// published by any other member arrive on the returned channel with
// latest-wins semantics (capacity one; stale plans are replaced, never
// queued). The channel is closed by Close.
func (b *Bus) Subscribe(skip string) <-chan *plan.Plan {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &subscriber{skip: skip, ch: make(chan *plan.Plan, 1)}
	if b.closed {
		close(s.ch)
		return s.ch
	}
	b.subs = append(b.subs, s)
	// Hand a late subscriber the current incumbent so it never races
	// blind against members that already published.
	if b.bestPlan != nil && b.bestFrom != skip {
		s.ch <- b.bestPlan
	}
	return s.ch
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

// Stats reports how many plans were published and how many improved the
// incumbent.
func (b *Bus) Stats() (published, improved int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.improved
}

// Close closes every subscriber channel and rejects further publications.
// Safe to call once the race has a winner; idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		close(s.ch)
	}
	b.subs = nil
}
