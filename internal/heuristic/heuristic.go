// Package heuristic implements the randomized join-ordering algorithms of
// Steinbrunn, Moerkotte & Kemper (VLDBJ 1997) that the paper's related
// work discusses: iterative improvement, simulated annealing, two-phase
// optimization, and plain random sampling over left-deep join orders.
//
// These algorithms share the anytime property with the MILP approach but —
// the paper's key distinction — provide no lower bounds: they can never
// certify how far their current plan is from the optimum. They serve here
// as primal-quality yardsticks for the experiments.
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

// Options tune the randomized searches.
type Options struct {
	// Seed drives all randomness (deterministic given a seed).
	Seed int64
	// Deadline bounds the wall-clock time; zero means the per-algorithm
	// default effort.
	Deadline time.Time
	// Restarts is the number of independent starts for iterative
	// improvement (default 10).
	Restarts int
	// OnImprovement, when non-nil, observes every strict improvement.
	OnImprovement func(p *plan.Plan, cost float64, elapsed time.Duration)
}

// coolingRate is simulated annealing's geometric cooling factor per stage.
const coolingRate = 0.9

func (o Options) withDefaults() Options {
	if o.Restarts <= 0 {
		o.Restarts = 10
	}
	return o
}

// search carries shared state for the randomized algorithms.
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
		opts:     opts.withDefaults(),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		start:    time.Now(),
		bestCost: math.Inf(1),
	}, nil
}

// expired reports whether the search budget is exhausted: the configured
// deadline passed or the caller's context ended. The algorithms are
// anytime, so an expired search still returns the best plan found.
func (s *search) expired() bool {
	if s.ctx.Err() != nil {
		return true
	}
	return !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline)
}

// planCost prices an order; math.Inf(1) on (impossible) evaluation errors.
func (s *search) planCost(order []int) float64 {
	c, err := plan.Cost(s.q, &plan.Plan{Order: order}, s.spec)
	if err != nil {
		return math.Inf(1)
	}
	return c
}

func (s *search) offer(order []int, c float64) {
	if c < s.bestCost {
		s.bestCost = c
		s.best = append(s.best[:0], order...)
		if s.opts.OnImprovement != nil {
			s.opts.OnImprovement(&plan.Plan{Order: append([]int(nil), order...)}, c, time.Since(s.start))
		}
	}
}

func (s *search) randomOrder() []int {
	return s.rng.Perm(s.q.NumTables())
}

// neighbor applies one of Steinbrunn's left-deep move types in place and
// returns an undo closure: Swap (exchange two positions) or 3Cycle.
func (s *search) neighbor(order []int) func() {
	n := len(order)
	if n >= 3 && s.rng.Intn(2) == 0 {
		// 3Cycle: rotate three distinct positions.
		i, j, k := s.rng.Intn(n), s.rng.Intn(n), s.rng.Intn(n)
		for j == i {
			j = s.rng.Intn(n)
		}
		for k == i || k == j {
			k = s.rng.Intn(n)
		}
		oi, oj, ok := order[i], order[j], order[k]
		order[i], order[j], order[k] = ok, oi, oj
		return func() { order[i], order[j], order[k] = oi, oj, ok }
	}
	i, j := s.rng.Intn(n), s.rng.Intn(n)
	for j == i {
		j = s.rng.Intn(n)
	}
	order[i], order[j] = order[j], order[i]
	return func() { order[i], order[j] = order[j], order[i] }
}

func (s *search) result() (*plan.Plan, float64, error) {
	if s.best == nil {
		return nil, 0, errors.New("heuristic: no plan found")
	}
	return &plan.Plan{Order: s.best}, s.bestCost, nil
}

// IterativeImprovement runs random-restart local search: from random
// starts, apply improving moves until a local optimum, keep the best.
func IterativeImprovement(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Plan, float64, error) {
	s, err := newSearch(ctx, q, spec, opts)
	if err != nil {
		return nil, 0, err
	}
	n := q.NumTables()
	maxStall := 4 * n * n // moves without improvement that declare a local optimum
	for restart := 0; restart < s.opts.Restarts && !s.expired(); restart++ {
		order := s.randomOrder()
		cur := s.planCost(order)
		s.offer(order, cur)
		stall := 0
		for stall < maxStall && !s.expired() {
			undo := s.neighbor(order)
			if c := s.planCost(order); c < cur {
				cur = c
				s.offer(order, cur)
				stall = 0
			} else {
				undo()
				stall++
			}
		}
	}
	return s.result()
}

// SimulatedAnnealing runs Metropolis-accepted local search with geometric
// cooling, per Steinbrunn's SA configuration, starting at half the cost of
// its random start plan.
func SimulatedAnnealing(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Plan, float64, error) {
	return anneal(ctx, q, spec, opts, 0)
}

// anneal is SimulatedAnnealing starting at temperature temp0, or at half the
// start plan's cost when temp0 is zero.
func anneal(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options, temp0 float64) (*plan.Plan, float64, error) {
	s, err := newSearch(ctx, q, spec, opts)
	if err != nil {
		return nil, 0, err
	}
	order := s.randomOrder()
	cur := s.planCost(order)
	s.offer(order, cur)

	temp := temp0
	if temp <= 0 {
		temp = math.Max(cur*0.5, 1)
	}
	n := q.NumTables()
	movesPerStage := 4 * n * n
	frozen := 0
	for frozen < 3 && !s.expired() {
		improvedStage := false
		for move := 0; move < movesPerStage && !s.expired(); move++ {
			undo := s.neighbor(order)
			c := s.planCost(order)
			delta := c - cur
			if delta <= 0 || s.rng.Float64() < math.Exp(-delta/temp) {
				cur = c
				if delta < 0 {
					improvedStage = true
				}
				s.offer(order, cur)
			} else {
				undo()
			}
		}
		temp *= coolingRate
		if improvedStage {
			frozen = 0
		} else {
			frozen++
		}
	}
	return s.result()
}

// TwoPhase is Steinbrunn's 2PO: iterative improvement to find a good local
// optimum, then low-temperature annealing around it.
func TwoPhase(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Plan, float64, error) {
	s, err := newSearch(ctx, q, spec, opts)
	if err != nil {
		return nil, 0, err
	}
	iiOpts := s.opts
	iiOpts.Restarts = int(math.Max(1, float64(s.opts.Restarts)/2))
	iiPlan, iiCost, err := IterativeImprovement(ctx, q, spec, iiOpts)
	if err != nil {
		return nil, 0, err
	}
	s.offer(iiPlan.Order, iiCost)

	saOpts := s.opts
	saOpts.Seed = s.opts.Seed + 1
	saPlan, saCost, err := anneal(ctx, q, spec, saOpts, math.Max(iiCost*0.05, 1)) // low temperature
	if err == nil {
		s.offer(saPlan.Order, saCost)
	}
	return s.result()
}

// RandomSampling evaluates independent random orders; the weakest baseline.
func RandomSampling(ctx context.Context, q *qopt.Query, spec cost.Spec, samples int, opts Options) (*plan.Plan, float64, error) {
	s, err := newSearch(ctx, q, spec, opts)
	if err != nil {
		return nil, 0, err
	}
	if samples <= 0 {
		samples = 1000
	}
	for i := 0; i < samples && !s.expired(); i++ {
		order := s.randomOrder()
		s.offer(order, s.planCost(order))
	}
	return s.result()
}
