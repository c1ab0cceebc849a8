package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// searchOpts are the options of the benchmark's milp-search ops: hash-join
// operator cost at medium precision, one thread, capped at maxNodes.
func searchOpts(maxNodes int) Options {
	return Options{Precision: PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin, MaxNodes: maxNodes, Threads: 1}
}

// optimizeOrFail runs Optimize and fails the test on an error or no plan.
func optimizeOrFail(t testing.TB, q *qopt.Query, opts Options) *Result {
	t.Helper()
	res, err := Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatalf("no plan (status %v)", res.Status)
	}
	return res
}

// counters is s without its wall-clock times.
func counters(s obs.Stats) obs.Stats {
	s.RootLPTime, s.CutTime, s.SearchTime, s.TotalTime, s.LPTime, s.HeuristicTime = 0, 0, 0, 0, 0, 0
	return s
}

// sameOptimize describes how two runs of Optimize differ, bit for bit, in
// status, bound, objective, incumbent, nodes, the search's counters and the
// plan; it is nil when they agree.
func sameOptimize(got, want *Result) error {
	switch {
	case got.Status != want.Status || got.Nodes != want.Nodes || got.MIPStart != want.MIPStart:
		return fmt.Errorf("%v after %d nodes from MIP start %q, want %v after %d from %q",
			got.Status, got.Nodes, got.MIPStart, want.Status, want.Nodes, want.MIPStart)
	case math.Float64bits(got.Bound) != math.Float64bits(want.Bound) ||
		math.Float64bits(got.Solution.Obj) != math.Float64bits(want.Solution.Obj) ||
		math.Float64bits(got.ExactCost) != math.Float64bits(want.ExactCost):
		return fmt.Errorf("bound %v objective %v cost %v, want %v %v %v",
			got.Bound, got.Solution.Obj, got.ExactCost, want.Bound, want.Solution.Obj, want.ExactCost)
	case !reflect.DeepEqual(counters(got.Stats), counters(want.Stats)):
		return fmt.Errorf("counters %+v, want %+v", counters(got.Stats), counters(want.Stats))
	case !reflect.DeepEqual(got.Plan, want.Plan):
		return fmt.Errorf("plan %+v, want %+v", got.Plan, want.Plan)
	}
	for j, v := range want.Solution.Values {
		if math.Float64bits(got.Solution.Values[j]) != math.Float64bits(v) {
			return fmt.Errorf("incumbent value %d = %v, want %v", j, got.Solution.Values[j], v)
		}
	}
	return nil
}

// TestPooledStorageLeavesNoTrace optimizes a query on new storage, then a
// larger one, then the first again: the encoding Optimize builds its model
// and compiled form in, and the search arena branch and bound runs on, come
// from process-wide pools, and nothing of the larger query may show in the
// repeat.
func TestPooledStorageLeavesNoTrace(t *testing.T) {
	opts := searchOpts(500)
	for _, pair := range [][2]*qopt.Query{
		{workload.Generate(workload.Chain, 8, 1, workload.Config{}), workload.Generate(workload.Star, 10, 2, workload.Config{})},
		{workload.Generate(workload.Cycle, 8, 2, workload.Config{}), workload.Generate(workload.Chain, 10, 1, workload.Config{})},
	} {
		a, b := pair[0], pair[1]
		// Two collections empty the pools, so the reference runs on new
		// storage.
		runtime.GC()
		runtime.GC()
		fresh := optimizeOrFail(t, a, opts)
		if err := sameOptimize(optimizeOrFail(t, a, opts), fresh); err != nil {
			t.Fatalf("%d tables again: %v", a.NumTables(), err)
		}
		optimizeOrFail(t, b, opts)
		if err := sameOptimize(optimizeOrFail(t, a, opts), fresh); err != nil {
			t.Fatalf("%d tables after %d: %v", a.NumTables(), b.NumTables(), err)
		}
	}
}

// TestPooledStorageConcurrent runs Optimize on four queries from four
// goroutines at once, so encodings and search arenas pass between requests
// of different sizes on different goroutines, and holds every result to the
// query's sequential run bit for bit. The race detector runs shorter
// searches.
func TestPooledStorageConcurrent(t *testing.T) {
	opts := searchOpts(150)
	if raceEnabled {
		opts.MaxNodes = 40
	}
	queries := []*qopt.Query{
		workload.Generate(workload.Chain, 8, 1, workload.Config{}),
		workload.Generate(workload.Star, 10, 2, workload.Config{}),
		workload.Generate(workload.Cycle, 8, 3, workload.Config{}),
		workload.Generate(workload.Chain, 10, 1, workload.Config{}),
	}
	serial := make([]*Result, len(queries))
	for i, q := range queries {
		serial[i] = optimizeOrFail(t, q, opts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for k := range queries {
					i := (k + g + r) % len(queries)
					res, err := Optimize(context.Background(), queries[i], opts)
					if err == nil && res.Plan == nil {
						err = fmt.Errorf("no plan (status %v)", res.Status)
					}
					if err == nil {
						err = sameOptimize(res, serial[i])
					}
					if err != nil {
						t.Errorf("goroutine %d, query %d: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHandedBackEncodingHoldsNoRequest optimizes with a MIP-start plan, an
// event callback and an injection feed, and takes the encoding Optimize
// handed back from the pool: it keeps the storage it grew, and no query,
// options, plan, callback or name of the request.
func TestHandedBackEncodingHoldsNoRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := workload.Generate(workload.Star, 8, 3, workload.Config{})
	opts := searchOpts(50)
	var err error
	if opts.InitialPlan, _, err = dp.GreedyLeftDeep(q, opts.Spec()); err != nil {
		t.Fatal(err)
	}
	opts.OnEvent = func(obs.Event) {}
	opts.Incumbents = func() *plan.Plan { return nil }

	// The race detector's pool drops some of what is put back, so try a
	// few times for a handed-back encoding.
	var enc *Encoding
	for try := 0; try < 20 && enc == nil; try++ {
		for cap(encodings.Get().(*Encoding).vars) > 0 { // empty the pool
		}
		optimizeOrFail(t, q, opts)
		if e := encodings.Get().(*Encoding); cap(e.vars) > 0 {
			enc = e
		}
	}
	if enc == nil {
		t.Fatal("Optimize handed no encoding back")
	}
	defer encodings.Put(enc)
	if enc.Query != nil || !reflect.DeepEqual(enc.Opts, Options{}) {
		t.Errorf("handed-back encoding holds query %p, options %+v", enc.Query, enc.Opts)
	}
	if enc.Model.Name != "" || enc.Model.NumVars() != 0 || enc.Model.NumConstrs() != 0 {
		t.Errorf("handed-back model %q holds %d variables, %d rows", enc.Model.Name, enc.Model.NumVars(), enc.Model.NumConstrs())
	}
	if enc.TIO != nil || enc.TII != nil || enc.CTO != nil || enc.LCO != nil || enc.Thresholds != nil || len(enc.effCard) != 0 {
		t.Error("handed-back encoding keeps the request's handles or ladder")
	}
	for _, l := range enc.lists[:cap(enc.lists)] {
		if l != nil {
			t.Fatal("handed-back encoding keeps a handle list")
		}
	}
	if enc.comp.Problem == nil || cap(enc.comp.Problem.L) == 0 {
		t.Error("handed-back encoding dropped its storage")
	}
}

// TestWarmOptimizeBytes bounds what a warm Optimize of the benchmark's
// chain-10 draw allocates, once the pools hold an encoding and a search
// arena grown for it: the model, its compiled form and the search's
// storage are reused, and what is left is the names of variables and rows,
// the MIP start, the incumbent and the result. The collector is off, so
// the pools are not emptied; the minimum of three runs leaves out what
// other goroutines allocate meanwhile, as a run's own count does not vary.
func TestWarmOptimizeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const boundKB = 50
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := workload.Generate(workload.Chain, 10, 1, workload.Config{})
	opts := searchOpts(500)
	optimizeOrFail(t, q, opts)
	optimizeOrFail(t, q, opts)
	least := uint64(math.MaxUint64)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		optimizeOrFail(t, q, opts)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("warm Optimize of chain-10 allocates %.1f kB", float64(least)/1024)
	if least > boundKB*1024 {
		t.Errorf("warm Optimize of chain-10 allocates %.1f kB, bound %d kB", float64(least)/1024, boundKB)
	}
}
