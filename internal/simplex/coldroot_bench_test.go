package simplex_test

import (
	"testing"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/simplex"
	"milpjoin/internal/workload"
)

// BenchmarkColdRootLP solves the compiled root LP of chain-20 seed 1 (hash
// join cost, medium precision — the first op of the benchmark's milp-root
// pool) cold through one reused workspace: the regime where one LP of a few
// thousand iterations is all the work. ns/iter is the per-iteration cost the
// index lists of the primal loop and of the triangular solves act on.
func BenchmarkColdRootLP(b *testing.B) {
	q := workload.Generate(workload.Chain, 20, 1, workload.Config{})
	enc, err := core.Encode(q, core.Options{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin})
	if err != nil {
		b.Fatal(err)
	}
	p := enc.Model.Compile().Problem
	opts := simplex.Options{Workspace: simplex.NewWorkspace()}
	solve := func() int {
		res, err := simplex.Solve(p, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != simplex.StatusOptimal {
			b.Fatalf("status %v", res.Status)
		}
		return res.Iters
	}
	// Grow the workspace. A cold solve factorizes into the least recently
	// used of the two retained slots, so it takes two solves to grow both.
	solve()
	solve()

	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		iters += solve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
