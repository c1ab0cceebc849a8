package dp

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
)

// allBushyTrees enumerates every ordered bushy join tree over the tables
// in set (a bitmask): n!·Catalan(n-1) trees, 30,240 for six tables.
// Subtrees are shared between results and must be treated as immutable.
func allBushyTrees(set int) []*plan.Tree {
	if set&(set-1) == 0 {
		return []*plan.Tree{plan.Leaf(bits.TrailingZeros(uint(set)))}
	}
	var ts []*plan.Tree
	for left := (set - 1) & set; left > 0; left = (left - 1) & set {
		for _, l := range allBushyTrees(left) {
			for _, r := range allBushyTrees(set ^ left) {
				ts = append(ts, plan.Join(l, r))
			}
		}
	}
	return ts
}

// TestConvMatchesBushy checks the enumerator against an independent
// oracle: every bushy tree over six tables, priced by the shared exact
// evaluator plan.TreeCost. The DP's inline cardinality recurrence and
// split pricing must land on the exhaustive minimum for every shape,
// seed, and metric.
func TestConvMatchesBushy(t *testing.T) {
	const n = 6
	trees := allBushyTrees(1<<n - 1)
	if len(trees) != 30240 {
		t.Fatalf("oracle enumerates %d trees over %d tables, want 30240", len(trees), n)
	}
	specs := []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()}
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star, workload.Clique} {
		for seed := int64(0); seed < 6; seed++ {
			q := workload.Generate(shape, n, seed, workload.Config{})
			for _, spec := range specs {
				want := math.Inf(1)
				var wantTree *plan.Tree
				for _, tr := range trees {
					c, err := plan.TreeCost(q, tr, spec)
					if err != nil {
						t.Fatal(err)
					}
					if c < want {
						want, wantTree = c, tr
					}
				}
				cTree, cCost, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{})
				if err != nil {
					t.Fatalf("%v seed %d conv: %v", shape, seed, err)
				}
				if math.Abs(cCost-want) > 1e-9*(1+want) {
					t.Fatalf("%v seed %d %v: conv %g vs exhaustive %g (conv %v, exhaustive %v)",
						shape, seed, spec.Metric, cCost, want, cTree, wantTree)
				}
				// The reported cost must equal the exact tree cost.
				recost, err := plan.TreeCost(q, cTree, spec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(recost-cCost) > 1e-9*(1+cCost) {
					t.Fatalf("%v seed %d: conv reports %g but tree costs %g", shape, seed, cCost, recost)
				}
				if err := cTree.Validate(q); err != nil {
					t.Fatalf("%v seed %d: invalid tree: %v", shape, seed, err)
				}
			}
		}
	}
}

// TestConvCutoffLoose: a cutoff far above the optimum must not change the
// answer — pruning is only allowed to discard provably worse subplans.
func TestConvCutoffLoose(t *testing.T) {
	q := workload.Generate(workload.Star, 8, 2, workload.Config{})
	spec := cost.DefaultSpec()
	_, want, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{
		Cutoff: func() float64 { return want * 1e6 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("loose cutoff changed the optimum: %g vs %g", got, want)
	}
}

// TestConvCutoffProvesNoneBetter: with the cutoff below the true
// optimum, every completion is pruned and the search reports
// ErrNoneBetter — the proof the portfolio uses to declare the incumbent
// optimal. A plan matching the cutoff exactly (the incumbent itself)
// survives the epsilon and is returned instead.
func TestConvCutoffProvesNoneBetter(t *testing.T) {
	q := workload.Generate(workload.Star, 8, 2, workload.Config{})
	spec := cost.DefaultSpec()
	_, opt, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = OptimizeBushy(context.Background(), q, spec, BushyOptions{
		Cutoff: func() float64 { return opt * 0.999 },
	})
	if !errors.Is(err, ErrNoneBetter) {
		t.Fatalf("cutoff below the optimum: err = %v, want ErrNoneBetter", err)
	}
	_, got, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{
		Cutoff: func() float64 { return opt },
	})
	if err != nil {
		t.Fatalf("cutoff at the optimum: %v", err)
	}
	if math.Abs(got-opt) > 1e-6*(1+opt) {
		t.Fatalf("cutoff at the optimum changed it: %g vs %g", got, opt)
	}
	// A cutoff strictly between optimum and +Inf that some plan beats
	// still returns that plan.
	_, got, err = OptimizeBushy(context.Background(), q, spec, BushyOptions{
		Cutoff: func() float64 { return opt * 1.5 },
	})
	if err != nil {
		t.Fatalf("cutoff above the optimum: %v", err)
	}
	if math.Abs(got-opt) > 1e-6*(1+opt) {
		t.Fatalf("cutoff above the optimum changed it: %g vs %g", got, opt)
	}
}

// TestConvTooLargeAndCancel: the guard rails shared with the other DPs.
func TestConvTooLargeAndCancel(t *testing.T) {
	big := workload.Generate(workload.Chain, 30, 1, workload.Config{})
	if _, _, err := OptimizeBushy(context.Background(), big, cost.CoutSpec(), BushyOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("30 tables: err = %v, want ErrTooLarge", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := workload.Generate(workload.Chain, 16, 1, workload.Config{})
	if _, _, err := OptimizeBushy(ctx, q, cost.CoutSpec(), BushyOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestNextSubsetSameCount enumerates all 3-of-6 bitmasks via Gosper's
// hack and checks count and ordering.
func TestNextSubsetSameCount(t *testing.T) {
	var got []int
	for s := 0b111; s < 1<<6; s = nextSubsetSameCount(s) {
		got = append(got, s)
	}
	if len(got) != 20 { // C(6,3)
		t.Fatalf("enumerated %d subsets, want 20", len(got))
	}
	for i, s := range got {
		if popcount(s) != 3 {
			t.Fatalf("subset %b has popcount %d", s, popcount(s))
		}
		if i > 0 && s <= got[i-1] {
			t.Fatalf("enumeration not increasing: %b after %b", s, got[i-1])
		}
	}
}

func popcount(s int) int {
	n := 0
	for ; s != 0; s &= s - 1 {
		n++
	}
	return n
}
