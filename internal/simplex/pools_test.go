package simplex_test

import (
	"context"
	"fmt"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
	"milpjoin/internal/simplex"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestSearchBtransMatchDense runs the MILP searches of the repository's
// benchmark — bench/solver.go's milp-search and milp-root pools, the 27
// draws TestBenchmarkPoolsPinned pins — and holds every BTRAN through a
// non-empty eta file to both paths of the eta pull: the sparse and the
// dense pull must give y the same bits, zeros' signs aside. The production
// searches never run the dual loop, so the first milp-search draw of each
// cell runs a second time with branch and bound's dual repair of warm node
// LPs switched on, which puts the dual loop's unit-vector BTRANs through the
// same check, at 100 nodes.
// -short skips it; the race detector takes the first chain draw of each
// pool, at a fifth of the nodes.
func TestSearchBtransMatchDense(t *testing.T) {
	if testing.Short() {
		t.Skip("27 MILP searches")
	}
	tally := simplex.CheckEveryBtran(t)
	// The draws bench/solver.go passes over (its stallers list).
	stalls := map[string]bool{"chain-10/6": true, "chain-10/12": true, "cycle-8/18": true, "star-8/17": true, "star-10/1": true, "cycle-20/2": true}
	shapes := workload.Shapes()
	if simplex.RaceEnabled {
		shapes = shapes[:1]
	}
	for _, pool := range []struct {
		name           string
		sizes          []int
		perCell, nodes int
		dual           bool
	}{
		{"milp-search", []int{8, 10}, 3, 500, false},
		{"milp-root", []int{20, 24, 28}, 1, 3, false},
		{"milp-search, dual repair", []int{8, 10}, 1, 100, true},
	} {
		if simplex.RaceEnabled {
			pool.sizes, pool.perCell, pool.nodes = pool.sizes[:1], 1, max(3, pool.nodes/5)
		}
		calls0, sparse0, unit0 := tally.Counts()
		for _, shape := range shapes {
			for _, n := range pool.sizes {
				for gen, picked := int64(1), 0; picked < pool.perCell; gen++ {
					name := fmt.Sprintf("%s-%d/%d", shape, n, gen)
					if stalls[name] {
						continue
					}
					picked++
					q := workload.Generate(shape, n, gen, workload.Config{})
					var err error
					if pool.dual {
						err = solveWithDualRepair(q, pool.nodes)
					} else {
						_, err = joinorder.Optimize(context.Background(), q, joinorder.Options{
							Strategy:  "milp",
							Metric:    joinorder.OperatorCost,
							Op:        joinorder.HashJoin,
							Precision: joinorder.PrecisionMedium,
							Budget:    joinorder.Budget{MaxNodes: pool.nodes, Threads: 1},
						})
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
		calls, sparse, unit := tally.Counts()
		calls, sparse, unit = calls-calls0, sparse-sparse0, unit-unit0
		t.Logf("%s: %d eta BTRANs, %d took the sparse pull, %d had a unit right-hand side", pool.name, calls, sparse, unit)
		if sparse == 0 || sparse == calls {
			t.Errorf("%s: the check needs both paths taken", pool.name)
		}
		if pool.dual && unit == 0 {
			t.Errorf("%s: no unit-vector BTRAN", pool.name)
		}
	}
}

// solveWithDualRepair encodes q as the milp strategy does (hash join
// operator cost, medium precision) and runs branch and bound on it with
// the dual simplex repairing warm node LPs.
func solveWithDualRepair(q *qopt.Query, maxNodes int) error {
	enc, err := core.Encode(q, core.Options{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin})
	if err != nil {
		return err
	}
	_, err = bb.Solve(context.Background(), enc.Model.Compile(), bb.Params{MaxNodes: maxNodes, Threads: 1, UseDualSimplex: true})
	return err
}
