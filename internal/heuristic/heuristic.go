// Package heuristic implements the gradient-descent join-order search of
// arXiv:2511.14482 over left-deep orders, the fast primal member of the
// strategy portfolio ("gradient").
//
// Like the randomized algorithms of Steinbrunn, Moerkotte & Kemper (VLDBJ
// 1997) that the paper's related work sets aside, it is anytime but provides
// no lower bound: it can never certify how far its current plan is from the
// optimum. Its plans reach branch and bound as injected incumbents.
package heuristic

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// Options tune the search.
type Options struct {
	// Seed drives all randomness (deterministic given a seed).
	Seed int64
	// OnImprovement, when non-nil, observes every strict improvement.
	OnImprovement func(p *plan.Plan, cost float64, elapsed time.Duration)
}

// search carries the state shared by the search's evaluations.
type search struct {
	ctx   context.Context
	q     *qopt.Query
	spec  cost.Spec
	opts  Options
	rng   *rand.Rand
	start time.Time

	best     []int
	bestCost float64
}

func newSearch(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*search, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &search{
		ctx:      ctx,
		q:        q,
		spec:     spec,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		start:    time.Now(),
		bestCost: math.Inf(1),
	}, nil
}

// expired reports whether the context ended, by deadline or cancel. The
// search is anytime, so an expired search still returns the best plan found.
func (s *search) expired() bool {
	return s.ctx.Err() != nil
}

// planCost prices an order; math.Inf(1) on (impossible) evaluation errors.
func (s *search) planCost(order []int) float64 {
	c, err := plan.Cost(s.q, &plan.Plan{Order: order}, s.spec)
	if err != nil {
		return math.Inf(1)
	}
	return c
}

// offer keeps order when it is cheaper than the best plan, or the first plan
// offered whatever its cost: on queries whose costs all overflow to +Inf
// that plan is still an answer.
func (s *search) offer(order []int, c float64) {
	if s.best == nil || c < s.bestCost {
		s.bestCost = c
		s.best = append(s.best[:0], order...)
		if s.opts.OnImprovement != nil {
			s.opts.OnImprovement(&plan.Plan{Order: append([]int(nil), order...)}, c, time.Since(s.start))
		}
	}
}

func (s *search) result() (*plan.Plan, float64, error) {
	if s.best == nil {
		return nil, 0, errors.New("heuristic: no plan found")
	}
	return &plan.Plan{Order: s.best}, s.bestCost, nil
}
