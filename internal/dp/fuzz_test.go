package dp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// randomQuery draws a query of 2–7 tables from seed: log-uniform
// cardinalities, unary filters, binary and ternary predicates, some of
// them expensive, and correlated groups with corrections on both sides
// of 1.
func randomQuery(seed int64, size uint8) *qopt.Query {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(size%6)
	q := &qopt.Query{}
	for i := 0; i < n; i++ {
		q.Tables = append(q.Tables, qopt.Table{Card: math.Pow(10, 1+3*rng.Float64())})
	}
	pred := func(tables ...int) {
		p := qopt.Predicate{Tables: tables, Sel: math.Pow(10, -3*rng.Float64())}
		if rng.Intn(3) == 0 {
			p.EvalCostPerTuple = 5 * rng.Float64()
		}
		q.Predicates = append(q.Predicates, p)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			pred(i)
		}
		for j := i + 1; j < n; j++ {
			if rng.Intn(5) < 2 {
				pred(i, j)
			}
		}
	}
	if n >= 3 && rng.Intn(2) == 0 {
		perm := rng.Perm(n)
		pred(perm[0], perm[1], perm[2])
	}
	if len(q.Predicates) == 0 {
		pred(0, n-1)
	}
	for g := rng.Intn(3); g > 0 && len(q.Predicates) >= 2; g-- {
		perm := rng.Perm(len(q.Predicates))
		q.Correlated = append(q.Correlated, qopt.CorrelatedGroup{
			Predicates:    perm[:2],
			CorrectionSel: math.Pow(5, 2*rng.Float64()-1),
		})
	}
	return q
}

// FuzzSetCardinality checks the readings of plan's cardinality and
// billing rules against each other on random queries: the left-deep DP
// (the subset lattice) finds the exhaustive optimum and reports its plan's
// plan.Cost under both metrics; the bushy DP finds the optimum of every
// bushy tree under plan.TreeCost (up to six tables) and never exceeds the
// left-deep optimum; TreeCost prices a left-deep tree as plan.Evaluate
// prices its plan; and every Evaluate step (the incremental walk) has the
// SubsetCard of its prefix as its result cardinality.
func FuzzSetCardinality(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		q := randomQuery(seed, size)
		if err := q.Validate(); err != nil {
			t.Fatalf("generated an invalid query: %v", err)
		}
		n := q.NumTables()
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
		order := rand.New(rand.NewSource(seed)).Perm(n)
		for _, spec := range []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()} {
			pl, c, err := OptimizeLeftDeep(context.Background(), q, spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, ex, err := ExhaustiveLeftDeep(q, spec)
			if err != nil {
				t.Fatal(err)
			}
			recost, err := plan.Cost(q, pl, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !near(c, ex) || !near(recost, c) {
				t.Fatalf("%v: dp-leftdeep %g (its plan %v costs %g), exhaustive %g", spec.Metric, c, pl.Order, recost, ex)
			}

			tree, bushy, err := OptimizeBushy(context.Background(), q, spec, BushyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if bushy > c*(1+1e-9) {
				t.Fatalf("%v: dp-bushy %g above dp-leftdeep %g", spec.Metric, bushy, c)
			}
			if n <= 6 {
				want := math.Inf(1)
				for _, tr := range allBushyTrees(1<<n - 1) {
					tc, err := plan.TreeCost(q, tr, spec)
					if err != nil {
						t.Fatal(err)
					}
					want = math.Min(want, tc)
				}
				if !near(bushy, want) {
					t.Fatalf("%v: dp-bushy %g (tree %v), exhaustive bushy %g", spec.Metric, bushy, tree, want)
				}
			}

			random := &plan.Plan{Order: order}
			linear, err := plan.TreeCost(q, random.LeftDeep(), spec)
			if err != nil {
				t.Fatal(err)
			}
			eval, err := plan.Cost(q, random, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !near(linear, eval) {
				t.Fatalf("%v: order %v: TreeCost %g, Evaluate %g", spec.Metric, order, linear, eval)
			}
		}
		eval, err := plan.Evaluate(q, &plan.Plan{Order: order}, cost.CoutSpec())
		if err != nil {
			t.Fatal(err)
		}
		for j, step := range eval.Steps {
			want := plan.SubsetCard(q, order[:j+2])
			if math.Abs(step.ResultCard-want) > 1e-12*want {
				t.Fatalf("order %v join %d: ResultCard %g, SubsetCard %g", order, j, step.ResultCard, want)
			}
		}
	})
}
