package heuristic

import (
	"context"
	"math"
	"sort"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// GradientDescent optimizes left-deep join orders by stochastic gradient
// descent on a continuous relaxation, following the gradient-based join
// ordering of arXiv:2511.14482: each table t carries a position score θ_t,
// a score vector decodes to the order sorting tables by score, and the
// (non-differentiable) decode is handled with simultaneous-perturbation
// (SPSA) two-point gradient estimates of the log plan cost. Momentum
// smooths the noisy estimates and restarts escape flat regions. The
// algorithm is anytime — every strict improvement is reported through
// Options.OnImprovement — and provides no lower bounds.
func GradientDescent(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Plan, float64, error) {
	s, err := newSearch(ctx, q, spec, opts)
	if err != nil {
		return nil, 0, err
	}
	n := q.NumTables()
	if n == 1 {
		s.offer([]int{0}, s.planCost([]int{0}))
		return s.result()
	}

	theta := make([]float64, n)
	velocity := make([]float64, n)
	plus := make([]float64, n)
	minus := make([]float64, n)
	delta := make([]float64, n)
	order := make([]int, n)

	// decode sorts tables by ascending score into order. Ties (measure
	// zero under the random perturbations) break by table index, keeping
	// the decode deterministic for a fixed seed.
	decode := func(scores []float64) []int {
		for t := range order {
			order[t] = t
		}
		sort.SliceStable(order, func(a, b int) bool {
			return scores[order[a]] < scores[order[b]]
		})
		return order
	}
	// logCost scores in log space so the gradient scale is insensitive
	// to the huge dynamic range of join cardinalities.
	logCost := func(scores []float64) float64 {
		c := s.planCost(decode(scores))
		s.offer(order, c)
		return math.Log(math.Max(c, 1))
	}

	const (
		learningRate = 0.3
		momentum     = 0.9
		perturbation = 0.5
		stepsPerRun  = 400
		restarts     = 10
	)
	for restart := 0; restart < restarts && !s.expired(); restart++ {
		// Fresh random start in [-1, 1); momentum resets with it.
		for t := range theta {
			theta[t] = 2*s.rng.Float64() - 1
			velocity[t] = 0
		}
		logCost(theta)
		for step := 0; step < stepsPerRun && !s.expired(); step++ {
			// SPSA: one random ±1 direction, two evaluations, an
			// unbiased estimate of the full gradient.
			for t := range delta {
				if s.rng.Intn(2) == 0 {
					delta[t] = 1
				} else {
					delta[t] = -1
				}
				plus[t] = theta[t] + perturbation*delta[t]
				minus[t] = theta[t] - perturbation*delta[t]
			}
			diff := logCost(plus) - logCost(minus)
			if math.IsInf(diff, 0) || math.IsNaN(diff) {
				continue
			}
			for t := range theta {
				grad := diff / (2 * perturbation * delta[t])
				velocity[t] = momentum*velocity[t] - learningRate*grad
				theta[t] += velocity[t]
			}
			logCost(theta)
		}
	}
	return s.result()
}
