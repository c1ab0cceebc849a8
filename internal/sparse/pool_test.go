package sparse_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"milpjoin/internal/sparse"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestSearchBasesMatchReference runs the MILP searches of the repository's
// benchmark — bench/solver.go's milp-search and milp-root pools: for every
// shape and size the first generator draws the solver does not stall on —
// and holds every basis they factorize to the reference loop: the same L, U,
// P, Q and work lists entry for entry, from the selected columns of the
// constraint matrix and from a square copy of them. -short and the race
// detector take the first draw of each cell, at a fifth of the nodes.
func TestSearchBasesMatchReference(t *testing.T) {
	type basis struct {
		a    *sparse.CSC
		head []int
		opts sparse.FactorOptions
	}
	var seen []basis
	recording := false // off while the checker factorizes
	sparse.SetFactorizeHook(t, func(a *sparse.CSC, cols []int, opts sparse.FactorOptions) {
		if recording {
			seen = append(seen, basis{a, slices.Clone(cols), opts})
		}
	})

	// The draws bench/solver.go passes over (its stallers list).
	stalls := map[string]bool{"chain-10/6": true, "chain-10/12": true, "cycle-8/18": true, "star-8/17": true, "star-10/1": true, "cycle-20/2": true}
	quick := testing.Short() || sparse.RaceEnabled
	var checker sparse.ReferenceChecker
	for _, pool := range []struct {
		name           string
		sizes          []int
		perCell, nodes int
	}{
		{"milp-search", []int{8, 10}, 3, 500},
		{"milp-root", []int{20, 24, 28}, 1, 3},
	} {
		var bases, columns, singleton, trivial, general int
		if quick {
			pool.sizes, pool.perCell, pool.nodes = pool.sizes[:1], 1, max(3, pool.nodes/5)
		}
		for _, shape := range workload.Shapes() {
			for _, n := range pool.sizes {
				for gen, picked := int64(1), 0; picked < pool.perCell; gen++ {
					name := fmt.Sprintf("%s-%d/%d", shape, n, gen)
					if stalls[name] {
						continue
					}
					picked++
					seen, recording = seen[:0], true
					_, err := joinorder.Optimize(context.Background(), workload.Generate(shape, n, gen, workload.Config{}), joinorder.Options{
						Strategy:  "milp",
						Metric:    joinorder.OperatorCost,
						Op:        joinorder.HashJoin,
						Precision: joinorder.PrecisionMedium,
						Budget:    joinorder.Budget{MaxNodes: pool.nodes, Threads: 1},
					})
					recording = false
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, b := range seen {
						s, tr, g := checker.Check(t, fmt.Sprintf("%s basis %d", name, i), b.a, b.head, b.opts)
						singleton, trivial, general = singleton+s, trivial+tr, general+g
						columns += len(b.head)
					}
					bases += len(seen)
				}
			}
		}
		if singleton == 0 || trivial == 0 || general == 0 {
			t.Errorf("%s: a branch of the column loop was never taken", pool.name)
		}
		t.Logf("%s: %d bases of %.0f columns: %.1f singleton, %.1f trivial reach, %.1f general", pool.name, bases,
			float64(columns)/float64(bases), float64(singleton)/float64(bases), float64(trivial)/float64(bases), float64(general)/float64(bases))
	}
}
