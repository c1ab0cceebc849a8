package bb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
	"milpjoin/internal/simplex"
)

// knapsackMILP builds a feasible multi-row knapsack (every row ≤, x = 0
// feasible) whose search branches for a few dozen to a few hundred nodes.
func knapsackMILP(seed int64, nVars, nCons int) *milp.Model {
	rng := rand.New(rand.NewSource(seed))
	m := milp.NewModel("knapsack")
	vars := make([]milp.Var, nVars)
	for j := range vars {
		vars[j] = m.AddVar(0, float64(1+rng.Intn(3)), -float64(1+rng.Intn(20)), milp.Integer, "")
	}
	for i := 0; i < nCons; i++ {
		var e milp.LinExpr
		w := 0.0
		for _, v := range vars {
			if rng.Float64() < 0.6 {
				c := float64(1 + rng.Intn(15))
				e = e.Add(v, c)
				w += c
			}
		}
		m.AddConstr(e, milp.LE, 0.3*w, "")
	}
	return m
}

// searchDiff describes how two searches differ, bit for bit, in the
// incumbent, objective and bound and in the counters of the work that found
// them; it is nil when they agree.
func searchDiff(got, want *Result) error {
	if got.Status != want.Status || len(got.X) != len(want.X) ||
		math.Float64bits(got.Obj) != math.Float64bits(want.Obj) ||
		math.Float64bits(got.Bound) != math.Float64bits(want.Bound) ||
		got.Nodes != want.Nodes || got.SimplexIters != want.SimplexIters ||
		got.Stats.Refactorizations != want.Stats.Refactorizations {
		return fmt.Errorf("%v obj %v bound %v, %d nodes, %d iterations, %d refactorizations; "+
			"want %v obj %v bound %v, %d nodes, %d iterations, %d refactorizations",
			got.Status, got.Obj, got.Bound, got.Nodes, got.SimplexIters, got.Stats.Refactorizations,
			want.Status, want.Obj, want.Bound, want.Nodes, want.SimplexIters, want.Stats.Refactorizations)
	}
	for j, v := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(v) {
			return fmt.Errorf("X[%d] = %v, want %v", j, got.X[j], v)
		}
	}
	return nil
}

// TestReusedArenaLeavesNoTrace solves a model on fresh worker arenas, then
// again, then a larger model, then the first again: the arenas Solve takes
// from its pool carry the earlier searches' factorizations, eta files and
// tolerances, and none of it may show in a result. The first model is
// compiled once, so its matrix is the same pointer every time — the key a
// retained factorization is adopted by.
func TestReusedArenaLeavesNoTrace(t *testing.T) {
	params := Params{Threads: 1, MaxNodes: 400}
	for seed := int64(1); seed <= 4; seed++ {
		a := knapsackMILP(seed, 12, 6).Compile()
		b := knapsackMILP(seed, 30, 15).Compile()
		solve := func(comp *milp.Computational) *Result {
			res, err := Solve(context.Background(), comp, params)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// Two collections empty the pool, so the reference runs on new
		// arenas.
		runtime.GC()
		runtime.GC()
		fresh := solve(a)
		if err := searchDiff(solve(a), fresh); err != nil {
			t.Fatalf("seed %d: A again: %v", seed, err)
		}
		solve(b)
		if err := searchDiff(solve(a), fresh); err != nil {
			t.Fatalf("seed %d: A after B: %v", seed, err)
		}
	}
}

// TestReusedArenaLeavesNoTraceConcurrent runs mixed-size searches from four
// goroutines, so arenas move between searches of different sizes on
// different goroutines, and holds every result to the serial one: bit for
// bit at one worker, and in status and optimum at two, where the search may
// explore other nodes.
func TestReusedArenaLeavesNoTraceConcurrent(t *testing.T) {
	type draw struct {
		comp   *milp.Computational
		serial *Result
	}
	var draws []draw
	for seed := int64(1); seed <= 3; seed++ {
		for _, size := range [][2]int{{8, 4}, {12, 6}, {20, 10}} {
			comp := knapsackMILP(seed, size[0], size[1]).Compile()
			res, err := Solve(context.Background(), comp, Params{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusOptimal {
				t.Fatalf("seed %d size %v: serial status %v", seed, size, res.Status)
			}
			draws = append(draws, draw{comp, res})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range draws {
					d := draws[(k*(g+1)+r)%len(draws)]
					threads := 1 + (k+g)%2
					res, err := Solve(context.Background(), d.comp, Params{Threads: threads})
					if err == nil && threads == 1 {
						err = searchDiff(res, d.serial)
					} else if err == nil && (res.Status != d.serial.Status ||
						math.Abs(res.Obj-d.serial.Obj) > 1e-6*(1+math.Abs(d.serial.Obj))) {
						err = fmt.Errorf("%v obj %v, serial %v obj %v", res.Status, res.Obj, d.serial.Status, d.serial.Obj)
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d, %d threads: %v", g, threads, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHandedBackArenaHoldsNoSearch solves with an event stream, an
// injection feed and a MIP start, and takes the arena Solve handed back
// from the pool: it keeps the storage the search grew, and no matrix,
// bounds, node link, basis link or callback of the search.
func TestHandedBackArenaHoldsNoSearch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	comp := knapsackMILP(2, 20, 10).Compile()
	params := Params{
		Threads:          2,
		Events:           obs.NewEmitter(time.Now(), func(obs.Event) {}),
		Incumbents:       func() []float64 { return nil },
		InitialIncumbent: make([]float64, comp.NumStructural),
	}
	// The race detector's pool drops some of what is put back, so try a
	// few times for a handed-back arena.
	var a *arena
	for try := 0; try < 20 && a == nil; try++ {
		for len(arenas.Get().(*arena).workers) > 0 { // empty the pool
		}
		if _, err := Solve(context.Background(), comp, params); err != nil {
			t.Fatal(err)
		}
		if got := arenas.Get().(*arena); len(got.workers) > 0 {
			a = got
		}
	}
	if a == nil {
		t.Fatal("Solve handed no arena back")
	}
	defer arenas.Put(a)
	if len(a.workers) != 2 || len(a.nodes) == 0 || len(a.bases) == 0 || cap(a.rootL) == 0 {
		t.Fatalf("handed-back arena has %d workers, %d nodes, %d bases; it dropped the search's storage",
			len(a.workers), len(a.nodes), len(a.bases))
	}
	for _, w := range a.workers {
		if !reflect.DeepEqual(w.prob, simplex.Problem{}) {
			t.Error("a handed-back worker keeps the search's problem")
		}
	}
	for _, nd := range a.nodes {
		if *nd != (node{}) {
			t.Fatal("a handed-back node keeps its links")
		}
	}
	for _, nd := range a.open[:cap(a.open)] {
		if nd != nil {
			t.Fatal("the handed-back open heap keeps a node")
		}
	}
	if a.used != 0 || len(a.open) != 0 || len(a.inFlight) != 0 || len(a.rootL) != 0 {
		t.Errorf("handed-back arena: %d nodes in use, %d open, %d in flight, %d root bounds",
			a.used, len(a.open), len(a.inFlight), len(a.rootL))
	}
}
