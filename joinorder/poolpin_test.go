package joinorder_test

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// poolDraw names one generator draw of a benchmark pool.
type poolDraw struct {
	shape workload.GraphShape
	n     int
	gen   int64
}

func (d poolDraw) String() string { return fmt.Sprintf("%s-%d/gen%d", d.shape, d.n, d.gen) }

// poolAnswer is what the search reports for one draw.
type poolAnswer struct {
	nodes, iters, rootIters, refactors int
	bound, objective, cost             float64
}

// TestBenchmarkPoolsPinned runs the 18 milp-search and 9 milp-root draws of
// the benchmark with its solve options (MaxNodes 500 for milp-search's 8 and
// 10 tables, 3 for milp-root's 20–28) and pins what each search reports —
// nodes, simplex and root-LP iterations, LU factorizations, proven bound,
// objective and plan cost — to literals. The draws are the ones
// bench/solver.go's pool() picks: for every shape and size, the first
// generator seeds that are not stallers. Work inside the LP solver that keeps
// every floating-point operation on a nonzero as it was must move none of
// them: the search tree, every bound and the set of draws that stall depend
// on those bits.
func TestBenchmarkPoolsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("27 MILP searches")
	}
	want := map[poolDraw]poolAnswer{
		{workload.Chain, 8, 1}:  {500, 1812, 299, 601, 3.9307138092985504e+11, 7.32788458461e+11, 5.659403260234245e+15},
		{workload.Chain, 8, 2}:  {231, 565, 266, 231, 3.662476269244139e+10, 3.6624794925e+10, 8.1779843823e+10},
		{workload.Chain, 8, 3}:  {500, 2219, 278, 551, 7.599721637029517e+11, 1.098999394473e+12, 5.8016540585151424e+20},
		{workload.Chain, 10, 1}: {500, 1816, 445, 513, 4.5156380001070966e+11, 1.098999396009e+12, 1.370152775105553e+18},
		{workload.Chain, 10, 2}: {185, 754, 444, 201, 3.698767513533701e+11, 3.69876755013e+11, 4.485507013977e+12},
		{workload.Chain, 10, 3}: {500, 1490, 431, 482, 1.1445165605721045e+12, 1.468542521955e+12, 2.5235159491935117e+25},
		{workload.Cycle, 8, 1}:  {500, 2844, 317, 560, 3.8427759380321515e+11, 7.32788458461e+11, 2.654057074044699e+15},
		{workload.Cycle, 8, 2}:  {243, 714, 272, 243, 3.662476291417967e+10, 3.6624794925e+10, 7.4454310503e+10},
		{workload.Cycle, 8, 3}:  {500, 2265, 285, 602, 7.528784236697422e+11, 1.098999394473e+12, 2.7665291463345108e+20},
		{workload.Cycle, 10, 1}: {500, 1946, 453, 531, 4.400046387781148e+11, 1.098999396009e+12, 2.99751094614534e+17},
		{workload.Cycle, 10, 2}: {500, 1339, 458, 512, 6.941583419080234e+10, 3.69876755013e+11, 4.014657939525e+12},
		{workload.Cycle, 10, 3}: {500, 2020, 441, 602, 8.6117150178802e+11, 1.468542521955e+12, 1.0229652333145635e+25},
		{workload.Star, 8, 1}:   {347, 913, 304, 346, 7.327884552299153e+11, 7.32788458461e+11, 1.703971373634369e+15},
		{workload.Star, 8, 2}:   {77, 353, 262, 57, 3.665810514480989e+09, 3.665810547e+09, 3.1103929509e+10},
		{workload.Star, 8, 3}:   {421, 1038, 279, 412, 1.0989990735733982e+12, 1.098999394473e+12, 4.739944965727894e+20},
		{workload.Star, 10, 2}:  {91, 510, 438, 54, 3.69876751353e+11, 3.69876751353e+11, 4.083702673839e+12},
		{workload.Star, 10, 3}:  {201, 947, 437, 173, 1.501501506001893e+12, 1.50150150633e+12, 2.061842507976512e+25},
		{workload.Star, 10, 4}:  {259, 746, 362, 264, 1.1022985936299805e+12, 1.102298626335e+12, 2.370077566535142e+21},

		{workload.Chain, 20, 1}: {3, 1921, 1843, 30, 1.350832322268465e+12, 4.39490149659e+12, 1.1961377424918034e+40},
		{workload.Chain, 24, 1}: {3, 2722, 2644, 42, 1.655476852454633e+12, 5.493533980629e+12, 4.686492119722087e+49},
		{workload.Chain, 28, 1}: {3, 3504, 3487, 54, 2.2446054304921484e+12, 6.961710247251e+12, 2.0048039457900062e+58},
		{workload.Cycle, 20, 1}: {3, 2039, 1969, 33, 1.3418632823937964e+12, 4.39490149659e+12, 3.607476051998635e+39},
		{workload.Cycle, 24, 1}: {3, 3179, 2795, 49, 1.649360362564362e+12, 5.493533980629e+12, 1.8765718966124212e+49},
		{workload.Cycle, 28, 1}: {3, 4250, 3802, 64, 2.206190916389187e+12, 6.961710247251e+12, 1.4912447433732846e+57},
		{workload.Star, 20, 1}:  {3, 1847, 1767, 29, 1.2198889676932075e+12, 4.032019486425e+12, 4.316095847640091e+39},
		{workload.Star, 24, 1}:  {3, 2729, 2729, 41, 1.554834310717254e+12, 5.130985519041e+12, 1.9110535912045052e+49},
		{workload.Star, 28, 1}:  {3, 3740, 3733, 56, 2.1104014323141746e+12, 6.632450359518e+12, 1.3967129877020062e+58},
	}
	draws := make([]poolDraw, 0, len(want))
	for d := range want {
		draws = append(draws, d)
	}
	slices.SortFunc(draws, func(a, b poolDraw) int {
		return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.shape, b.shape), cmp.Compare(a.gen, b.gen))
	})
	for _, d := range draws {
		maxNodes := 500 // milp-search
		if d.n >= 20 {
			maxNodes = 3 // milp-root
		}
		q := workload.Generate(d.shape, d.n, d.gen, workload.Config{})
		res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
			Strategy:  "milp",
			Metric:    joinorder.OperatorCost,
			Op:        joinorder.HashJoin,
			Precision: joinorder.PrecisionMedium,
			Budget:    joinorder.Budget{MaxNodes: maxNodes, Threads: 1},
		})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		got := poolAnswer{res.Nodes, res.Stats.SimplexIters, res.Stats.RootLPIters, res.Stats.Refactorizations,
			res.Bound, res.Objective, res.Cost}
		if got != want[d] {
			t.Errorf("%v: got {%d, %d, %d, %d, %v, %v, %v}, want %+v", d,
				got.nodes, got.iters, got.rootIters, got.refactors, got.bound, got.objective, got.cost, want[d])
		}
	}
}
