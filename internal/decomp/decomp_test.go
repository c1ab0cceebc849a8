package decomp

import (
	"context"
	"math"
	"testing"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

func specs() []cost.Spec {
	return []cost.Spec{
		{Metric: cost.Cout, Params: cost.Params{}.WithDefaults()},
		{Metric: cost.OperatorCost, Op: cost.HashJoin, Params: cost.Params{}.WithDefaults()},
	}
}

// enrich adds the features the generators omit — a unary predicate on
// table 0, an expensive predicate, and a correlated group with a
// correction above 1 — so the coster equivalence tests exercise every
// branch of plan.Evaluate.
func enrich(q *qopt.Query) *qopt.Query {
	q.Predicates[0].EvalCostPerTuple = 2.5
	q.Predicates = append(q.Predicates, qopt.Predicate{Tables: []int{0}, Sel: 0.5, EvalCostPerTuple: 1.5})
	if len(q.Predicates) >= 3 {
		q.Correlated = append(q.Correlated, qopt.CorrelatedGroup{
			Predicates:    []int{0, 1},
			CorrectionSel: 1.4,
		})
	}
	return q
}

func perms(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range perms(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// stitchTotal walks a partition permutation through appendCost.
func stitchTotal(st *stitcher, order []int) float64 {
	var (
		mask  uint64
		card  float64
		total float64
	)
	for _, p := range order {
		add, ncard := st.appendCost(mask, p, card)
		total += add
		card = ncard
		mask |= 1 << uint(p)
	}
	return total
}

// TestStitchAppendCostMatchesPlanCost: the stitcher's incremental coster
// must agree with plan.Cost on every partition permutation — it is the
// objective the quotient DP minimizes, so any drift silently misorders.
func TestStitchAppendCostMatchesPlanCost(t *testing.T) {
	shapes := []workload.GraphShape{workload.Chain, workload.Star, workload.Cycle, workload.Clique, workload.Transitive, workload.Snowflake}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			q := enrich(workload.Generate(shape, 9, seed, workload.Config{}))
			parts := partitionGraph(q, 3)
			orders := make([][]int, len(parts))
			for i, p := range parts {
				orders[i] = append([]int(nil), p.Tables...)
			}
			for _, spec := range specs() {
				st := newStitcher(q, spec, orders)
				for _, po := range perms(len(parts)) {
					got := stitchTotal(st, po)
					want, err := plan.Cost(q, &plan.Plan{Order: st.concat(po)}, spec)
					if err != nil {
						t.Fatalf("%v seed %d: plan.Cost: %v", shape, seed, err)
					}
					if relDiff(got, want) > 1e-9 {
						t.Fatalf("%v seed %d %v perm %v: stitch cost %g, plan.Cost %g",
							shape, seed, spec.Metric, po, got, want)
					}
				}
			}
		}
	}
}

// TestStitchSingleTableFirstPartition: a size-1 first partition must bill
// its table's filter at the plan's first join, as a lone leaf.
func TestStitchSingleTableFirstPartition(t *testing.T) {
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 1000}, {Card: 500}, {Card: 200}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0}, Sel: 0.25, EvalCostPerTuple: 3},
			{Tables: []int{1, 2}, Sel: 0.1},
		},
	}
	orders := [][]int{{0}, {1, 2}}
	for _, spec := range specs() {
		st := newStitcher(q, spec, orders)
		for _, po := range [][]int{{0, 1}, {1, 0}} {
			got := stitchTotal(st, po)
			want, err := plan.Cost(q, &plan.Plan{Order: st.concat(po)}, spec)
			if err != nil {
				t.Fatal(err)
			}
			if relDiff(got, want) > 1e-12 {
				t.Fatalf("%v perm %v: stitch %g, plan.Cost %g", spec.Metric, po, got, want)
			}
		}
	}
}

// TestOrderDPIsOptimalOverPermutations: the quotient DP must land on the
// cheapest permutation exactly.
func TestOrderDPIsOptimalOverPermutations(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		q := enrich(workload.Generate(workload.Star, 10, seed, workload.Config{}))
		parts := partitionGraph(q, 4)
		if len(parts) > 8 {
			t.Fatalf("seed %d: %d partitions, brute force too large", seed, len(parts))
		}
		orders := make([][]int, len(parts))
		for i, p := range parts {
			orders[i] = append([]int(nil), p.Tables...)
		}
		for _, spec := range specs() {
			st := newStitcher(q, spec, orders)
			po, ok := st.orderDP(context.Background())
			if !ok {
				t.Fatal("orderDP gave up without a deadline")
			}
			got := stitchTotal(st, po)
			best := math.Inf(1)
			for _, cand := range perms(len(parts)) {
				if c := stitchTotal(st, cand); c < best {
					best = c
				}
			}
			if relDiff(got, best) > 1e-9 {
				t.Fatalf("seed %d %v: DP cost %g, brute force %g", seed, spec.Metric, got, best)
			}
			greedy := stitchTotal(st, st.orderGreedy())
			if greedy < got && relDiff(greedy, got) > 1e-9 {
				t.Fatalf("seed %d %v: greedy %g beat DP %g", seed, spec.Metric, greedy, got)
			}
		}
	}
}

// TestSeamFullWindowFindsLeftDeepOptimum: with the window covering the
// whole order, the seam DP is a complete left-deep search and must match
// dp.OptimizeLeftDeep's optimum under plan.Cost, evaluation costs of the
// enriched queries included.
func TestSeamFullWindowFindsLeftDeepOptimum(t *testing.T) {
	const n = 7
	for _, shape := range []workload.GraphShape{workload.Chain, workload.Star, workload.Clique} {
		for seed := int64(1); seed <= 3; seed++ {
			q := enrich(workload.Generate(shape, n, seed, workload.Config{}))
			for _, spec := range specs() {
				order := []int{0, 1, 2, 3, 4, 5, 6}
				order, _ = seamOptimize(context.Background(), q, spec, order, nil, nil)
				got, err := plan.Cost(q, &plan.Plan{Order: order}, spec)
				if err != nil {
					t.Fatal(err)
				}
				_, want, err := dp.OptimizeLeftDeep(context.Background(), q, spec, dp.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if relDiff(got, want) > 1e-9 {
					t.Fatalf("%v seed %d %v: seam %g, dp-leftdeep %g", shape, seed, spec.Metric, got, want)
				}
			}
		}
	}
}

// TestSeamNeverWorsens: whatever the starting order, the seam loop's
// result prices no worse than the input.
func TestSeamNeverWorsens(t *testing.T) {
	q := enrich(workload.Generate(workload.Transitive, 24, 7, workload.Config{}))
	for _, spec := range specs() {
		order := make([]int, 24)
		for i := range order {
			order[i] = 24 - 1 - i
		}
		before, err := plan.Cost(q, &plan.Plan{Order: append([]int(nil), order...)}, spec)
		if err != nil {
			t.Fatal(err)
		}
		order, improved := seamOptimize(context.Background(), q, spec, order, []int{8, 16}, nil)
		after, err := plan.Cost(q, &plan.Plan{Order: order}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if after > before*(1+1e-12) {
			t.Fatalf("%v: seam worsened %g -> %g", spec.Metric, before, after)
		}
		if improved && after >= before {
			t.Fatalf("%v: claimed improvement but %g -> %g", spec.Metric, before, after)
		}
	}
}

// TestPartitionGraphProperties: exact cover, cap respected, deterministic,
// and tree carves keep partitions connected.
func TestPartitionGraphProperties(t *testing.T) {
	shapes := []workload.GraphShape{workload.Chain, workload.Star, workload.Cycle, workload.Clique, workload.Transitive, workload.Snowflake}
	for _, shape := range shapes {
		for _, tc := range []struct{ n, cap int }{{10, 4}, {30, 8}, {120, 15}} {
			q := workload.Generate(shape, tc.n, 11, workload.Config{})
			parts := partitionGraph(q, tc.cap)
			seen := make([]int, tc.n)
			for _, p := range parts {
				if len(p.Tables) > tc.cap {
					t.Fatalf("%v n=%d: partition size %d over cap %d", shape, tc.n, len(p.Tables), tc.cap)
				}
				for _, tb := range p.Tables {
					seen[tb]++
				}
			}
			for tb, cnt := range seen {
				if cnt != 1 {
					t.Fatalf("%v n=%d: table %d covered %d times", shape, tc.n, tb, cnt)
				}
			}
			again := partitionGraph(q, tc.cap)
			if len(again) != len(parts) {
				t.Fatalf("%v n=%d: nondeterministic partition count", shape, tc.n)
			}
			for i := range parts {
				if len(parts[i].Tables) != len(again[i].Tables) {
					t.Fatalf("%v n=%d: nondeterministic partition %d", shape, tc.n, i)
				}
				for j := range parts[i].Tables {
					if parts[i].Tables[j] != again[i].Tables[j] {
						t.Fatalf("%v n=%d: nondeterministic partition %d", shape, tc.n, i)
					}
				}
			}
		}
	}
	// Packing keeps the quotient small: at most one partition may end
	// smaller than half the cap, so P stays below 2·n/cap + 1.
	for _, shape := range []workload.GraphShape{workload.Star, workload.Snowflake, workload.Transitive} {
		q := workload.Generate(shape, 120, 3, workload.Config{})
		parts := partitionGraph(q, 15)
		if limit := 2*(120/15) + 1; len(parts) > limit {
			t.Fatalf("%v: %d partitions for n=120 cap=15, want <= %d", shape, len(parts), limit)
		}
	}
}

// TestLowerBoundValid: the cherry bound must sit at or below the exact
// bushy optimum — the whole point is that hybrid's reported bound is
// valid over the full plan space.
func TestLowerBoundValid(t *testing.T) {
	shapes := []workload.GraphShape{workload.Chain, workload.Star, workload.Cycle, workload.Clique}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			q := workload.Generate(shape, 8, seed, workload.Config{})
			if seed%2 == 0 {
				enrich(q)
			}
			for _, spec := range specs() {
				lb := lowerBound(q, spec)
				_, c, err := dp.OptimizeBushy(context.Background(), q, spec, dp.BushyOptions{})
				if err != nil {
					t.Fatalf("%v seed %d: bushy DP: %v", shape, seed, err)
				}
				if lb > c*(1+1e-9) {
					t.Fatalf("%v seed %d %v: bound %g above bushy optimum %g", shape, seed, spec.Metric, lb, c)
				}
				if math.IsInf(lb, 0) || math.IsNaN(lb) || lb < 0 {
					t.Fatalf("%v seed %d %v: bound %g not finite and non-negative", shape, seed, spec.Metric, lb)
				}
			}
		}
	}
}

// TestSubQueryRelabel: internal predicates and groups survive relabeling.
func TestSubQueryRelabel(t *testing.T) {
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 10}, {Card: 20}, {Card: 30}, {Card: 40}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 2}, Sel: 0.1},
			{Tables: []int{2, 3}, Sel: 0.2},
			{Tables: []int{1, 2}, Sel: 0.3}, // cut: table 1 outside
			{Tables: []int{3}, Sel: 0.4},
		},
		Correlated: []qopt.CorrelatedGroup{
			{Predicates: []int{0, 1}, CorrectionSel: 1.2},
			{Predicates: []int{1, 2}, CorrectionSel: 0.8}, // crosses the cut
		},
	}
	sub, localOf := subQuery(q, Partition{Tables: []int{0, 2, 3}})
	if len(sub.Tables) != 3 || sub.Tables[1].Card != 30 {
		t.Fatalf("tables misrelabeled: %+v", sub.Tables)
	}
	if localOf[1] != -1 || localOf[2] != 1 {
		t.Fatalf("localOf wrong: %v", localOf)
	}
	if len(sub.Predicates) != 3 {
		t.Fatalf("want 3 internal predicates, got %d", len(sub.Predicates))
	}
	if got := sub.Predicates[0].Tables; got[0] != 0 || got[1] != 1 {
		t.Fatalf("predicate 0 relabeled to %v", got)
	}
	if len(sub.Correlated) != 1 || sub.Correlated[0].CorrectionSel != 1.2 {
		t.Fatalf("correlated groups wrong: %+v", sub.Correlated)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub-query invalid: %v", err)
	}
}

// TestOptimizeEndToEnd: the multi-partition pipeline returns a valid
// feasible plan, a finite bound at or below the cost, and a monotone
// improvement trajectory ending at the final cost.
func TestOptimizeEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		shape  workload.GraphShape
		n, cap int
	}{
		{workload.Snowflake, 40, 8},
		{workload.Transitive, 40, 8},
		// A cap above dp.MaxTables is clamped to it.
		{workload.Snowflake, 60, 40},
	} {
		shape := tc.shape
		q := workload.Generate(shape, tc.n, 5, workload.Config{})
		for _, spec := range specs() {
			var trajectory []float64
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			res, err := Optimize(ctx, q, Options{
				Spec:         spec,
				PartitionCap: tc.cap,
				OnImprovement: func(pl *plan.Plan, c float64) {
					trajectory = append(trajectory, c)
				},
			})
			cancel()
			if err != nil {
				t.Fatalf("%v %v: %v", shape, spec.Metric, err)
			}
			if err := res.Plan.Validate(q); err != nil {
				t.Fatalf("%v %v: invalid plan: %v", shape, spec.Metric, err)
			}
			c, err := plan.Cost(q, res.Plan, spec)
			if err != nil || relDiff(c, res.Cost) > 1e-9 {
				t.Fatalf("%v %v: reported cost %g, plan.Cost %g (%v)", shape, spec.Metric, res.Cost, c, err)
			}
			if math.IsInf(res.Bound, 0) || math.IsNaN(res.Bound) || res.Bound < 0 {
				t.Fatalf("%v %v: bound %g not finite", shape, spec.Metric, res.Bound)
			}
			if res.Bound > res.Cost*(1+1e-9) {
				t.Fatalf("%v %v: bound %g above cost %g", shape, spec.Metric, res.Bound, res.Cost)
			}
			total := 0
			for _, s := range res.PartitionSizes {
				if s > dp.MaxTables {
					t.Fatalf("%v %v: partition of %d tables above dp.MaxTables", shape, spec.Metric, s)
				}
				total += s
			}
			if total != tc.n || len(res.PartitionSizes) < 2 {
				t.Fatalf("%v %v: partition sizes %v", shape, spec.Metric, res.PartitionSizes)
			}
			if len(trajectory) == 0 {
				t.Fatalf("%v %v: no improvements published", shape, spec.Metric)
			}
			for i := 1; i < len(trajectory); i++ {
				if trajectory[i] > trajectory[i-1]*(1+1e-12) {
					t.Fatalf("%v %v: trajectory not monotone: %v", shape, spec.Metric, trajectory)
				}
			}
			if relDiff(trajectory[len(trajectory)-1], res.Cost) > 1e-9 {
				t.Fatalf("%v %v: last improvement %g != final cost %g", shape, spec.Metric, trajectory[len(trajectory)-1], res.Cost)
			}
		}
	}
}

// TestOptimizeSinglePartitionExact: a query under the cap takes the exact
// path — the bound is the bushy optimum and the plan prices at or above
// it, with Optimal set on equality.
func TestOptimizeSinglePartitionExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		q := workload.Generate(workload.Star, 8, seed, workload.Config{})
		for _, spec := range specs() {
			res, err := Optimize(context.Background(), q, Options{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			_, bushy, err := dp.OptimizeBushy(context.Background(), q, spec, dp.BushyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if relDiff(res.Bound, bushy) > 1e-9 {
				t.Fatalf("seed %d %v: bound %g, bushy optimum %g", seed, spec.Metric, res.Bound, bushy)
			}
			if res.Cost < res.Bound*(1-1e-9) {
				t.Fatalf("seed %d %v: cost %g below bound %g", seed, spec.Metric, res.Cost, res.Bound)
			}
			if res.Optimal && relDiff(res.Cost, res.Bound) > 1e-9 {
				t.Fatalf("seed %d %v: Optimal but cost %g != bound %g", seed, spec.Metric, res.Cost, res.Bound)
			}
			if len(res.PartitionSizes) != 1 || res.PartitionSizes[0] != 8 {
				t.Fatalf("seed %d: partition sizes %v", seed, res.PartitionSizes)
			}
		}
	}
}

// TestPartitionsAreLeftDeepOptimal: every partition's order is the
// left-deep optimum of its sub-query — it prices as dp.OptimizeLeftDeep's.
func TestPartitionsAreLeftDeepOptimal(t *testing.T) {
	for _, tc := range []struct {
		shape workload.GraphShape
		n     int
		seed  int64
	}{{workload.Snowflake, 24, 3}, {workload.Transitive, 40, 5}} {
		q := workload.Generate(tc.shape, tc.n, tc.seed, workload.Config{})
		for _, spec := range specs() {
			for _, p := range partitionGraph(q, 8) {
				order, exact := solvePartition(context.Background(), q, p, spec)
				if !exact {
					t.Fatalf("%v: partition %v fell back to greedy without a deadline", tc.shape, p.Tables)
				}
				sub, localOf := subQuery(q, p)
				local := make([]int, len(order))
				for j, g := range order {
					local[j] = localOf[g]
				}
				got, err := plan.Cost(sub, &plan.Plan{Order: local}, spec)
				if err != nil {
					t.Fatalf("%v: partition %v order %v: %v", tc.shape, p.Tables, order, err)
				}
				_, want, err := dp.OptimizeLeftDeep(context.Background(), sub, spec, dp.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if relDiff(got, want) > 1e-9 {
					t.Fatalf("%v %v partition %v: order prices %g, left-deep optimum %g",
						tc.shape, spec.Metric, p.Tables, got, want)
				}
			}
		}
	}
}

// TestOptimizeFeasibleUnderTinyDeadline: a 1 ms context deadline still
// yields a valid plan via the greedy fallbacks.
func TestOptimizeFeasibleUnderTinyDeadline(t *testing.T) {
	q := workload.Generate(workload.Snowflake, 60, 9, workload.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := Optimize(ctx, q, Options{
		Spec:         cost.Spec{Metric: cost.Cout, Params: cost.Params{}.WithDefaults()},
		PartitionCap: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("invalid plan under tiny deadline: %v", err)
	}
	if math.IsInf(res.Cost, 0) || math.IsNaN(res.Cost) || res.Cost <= 0 {
		t.Fatalf("cost %g", res.Cost)
	}
}
