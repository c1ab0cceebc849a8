package bb

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
)

// improvements returns an event sink that appends the solve's incumbent
// and bound events — its anytime trajectory — to into.
func improvements(into *[]obs.Event) *obs.Emitter {
	return obs.NewEmitter(time.Time{}, func(ev obs.Event) {
		if ev.Kind == obs.KindIncumbent || ev.Kind == obs.KindBound {
			*into = append(*into, ev)
		}
	})
}

func solveModel(t *testing.T, m *milp.Model, p Params) *Result {
	t.Helper()
	res, err := Solve(context.Background(), m.Compile(), p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c + 4d s.t. 3a + 4b + 2c + d <= 6 (binary).
	// Optimum: b + c + d? 13+7+4=24 weight 4+2+1=7 > 6. a+c+d = 21 w 6 ok;
	// b+c = 20 w 6; a+b = 23 weight 7 no. b+c+? b+c=20 w6; a+c+d=21 w6.
	// Best is 21.
	m := milp.NewModel("knapsack")
	a := m.AddBinary(-10, "a")
	b := m.AddBinary(-13, "b")
	c := m.AddBinary(-7, "c")
	d := m.AddBinary(-4, "d")
	m.AddConstr(milp.Expr(a, 3.0, b, 4.0, c, 2.0, d, 1.0), milp.LE, 6, "cap")

	res := solveModel(t, m, Params{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-21)) > 1e-6 {
		t.Errorf("obj = %g, want -21", res.Obj)
	}
	if math.Abs(res.Bound-res.Obj) > 1e-5 {
		t.Errorf("bound %g != obj %g at optimality", res.Bound, res.Obj)
	}
}

func TestPureLPSolvesAtRoot(t *testing.T) {
	m := milp.NewModel("lp")
	x := m.AddContinuous(0, 10, -1, "x")
	y := m.AddContinuous(0, 10, -1, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, 1.0), milp.LE, 7, "c")
	res := solveModel(t, m, Params{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-7)) > 1e-6 {
		t.Errorf("obj = %g, want -7", res.Obj)
	}
	if res.Nodes != 1 {
		t.Errorf("nodes = %d, want 1 (no branching needed)", res.Nodes)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. 2x <= 7, x integer in [0, 10] → x = 3.
	m := milp.NewModel("intround")
	x := m.AddVar(0, 10, -1, milp.Integer, "x")
	m.AddConstr(milp.Expr(x, 2.0), milp.LE, 7, "c")
	res := solveModel(t, m, Params{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-3)) > 1e-6 {
		t.Errorf("obj = %g, want -3", res.Obj)
	}
	if math.Abs(res.X[0]-3) > 1e-6 {
		t.Errorf("x = %g, want 3", res.X[0])
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// x + y = 1.5 with x, y binary has no integer solution... actually
	// it does not even as LP with binaries? x=1,y=0.5 is LP-feasible but
	// not integral; no integral point sums to 1.5.
	m := milp.NewModel("infeasible")
	x := m.AddBinary(0, "x")
	y := m.AddBinary(0, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, 1.0), milp.EQ, 1.5, "half")
	res := solveModel(t, m, Params{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := milp.NewModel("lpinf")
	x := m.AddBinary(0, "x")
	m.AddConstr(milp.Expr(x, 1.0), milp.GE, 2, "imposs")
	res := solveModel(t, m, Params{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := milp.NewModel("unbounded")
	x := m.AddContinuous(0, math.Inf(1), -1, "x")
	y := m.AddContinuous(0, math.Inf(1), 0, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, -1.0), milp.LE, 1, "c")
	res := solveModel(t, m, Params{})
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestEqualityMILP(t *testing.T) {
	// min x + y s.t. x + 2y = 5, x, y integer ≥ 0 → (1,2) obj 3 or (3,1)
	// obj 4 or (5,0) obj 5 → best 3.
	m := milp.NewModel("eq")
	x := m.AddVar(0, 10, 1, milp.Integer, "x")
	y := m.AddVar(0, 10, 1, milp.Integer, "y")
	m.AddConstr(milp.Expr(x, 1.0, y, 2.0), milp.EQ, 5, "c")
	res := solveModel(t, m, Params{})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-3) > 1e-6 {
		t.Errorf("obj = %g, want 3", res.Obj)
	}
}

// bruteForceMILP enumerates all integer assignments of a model whose
// variables are all integral with small finite ranges.
func bruteForceMILP(m *milp.Model) (float64, bool) {
	n := m.NumVars()
	lo := make([]int, n)
	hi := make([]int, n)
	for j := 0; j < n; j++ {
		l, u := m.Bounds(milp.Var(j))
		lo[j], hi[j] = int(math.Ceil(l)), int(math.Floor(u))
	}
	best := math.Inf(1)
	found := false
	vals := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if m.CheckFeasible(vals, 1e-9) == nil {
				if obj := m.EvalObjective(vals); obj < best {
					best = obj
					found = true
				}
			}
			return
		}
		for v := lo[j]; v <= hi[j]; v++ {
			vals[j] = float64(v)
			rec(j + 1)
		}
	}
	rec(0)
	return best, found
}

func randomMILP(rng *rand.Rand, nVars, nCons int) *milp.Model {
	m := milp.NewModel("random")
	vars := make([]milp.Var, nVars)
	for j := 0; j < nVars; j++ {
		vars[j] = m.AddVar(0, float64(1+rng.Intn(3)), float64(rng.Intn(11)-5), milp.Integer, "")
	}
	for i := 0; i < nCons; i++ {
		e := milp.LinExpr{}
		for j := 0; j < nVars; j++ {
			if rng.Float64() < 0.7 {
				e = e.Add(vars[j], float64(rng.Intn(9)-4))
			}
		}
		if e.NumTerms() == 0 {
			continue
		}
		rhs := float64(rng.Intn(13) - 4)
		switch rng.Intn(3) {
		case 0:
			m.AddConstr(e, milp.LE, rhs, "")
		case 1:
			m.AddConstr(e, milp.GE, rhs, "")
		default:
			m.AddConstr(e, milp.EQ, rhs, "")
		}
	}
	return m
}

func TestRandomMILPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		m := randomMILP(rng, 2+rng.Intn(4), 1+rng.Intn(4))
		want, feasible := bruteForceMILP(m)

		res, err := Solve(context.Background(), m.Compile(), Params{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: status %v for infeasible model (obj %g)", trial, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal (brute force %g)", trial, res.Status, want)
		}
		if math.Abs(res.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: obj %g, want %g", trial, res.Obj, want)
		}
		// The incumbent must be genuinely feasible for the model.
		vals := res.X[:m.NumVars()]
		rounded := make([]float64, len(vals))
		for j := range vals {
			rounded[j] = math.Round(vals[j])
		}
		if err := m.CheckFeasible(rounded, 1e-5); err != nil {
			t.Fatalf("trial %d: incumbent infeasible: %v", trial, err)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 25; trial++ {
		m := randomMILP(rng, 3+rng.Intn(4), 2+rng.Intn(3))
		serial, err := Solve(context.Background(), m.Compile(), Params{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Solve(context.Background(), m.Compile(), Params{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if (serial.Status == StatusOptimal) != (parallel.Status == StatusOptimal) {
			t.Fatalf("trial %d: serial %v vs parallel %v", trial, serial.Status, parallel.Status)
		}
		if serial.Status == StatusOptimal && math.Abs(serial.Obj-parallel.Obj) > 1e-5 {
			t.Fatalf("trial %d: serial obj %g vs parallel %g", trial, serial.Obj, parallel.Obj)
		}
	}
}

func TestAnytimeCallback(t *testing.T) {
	m := milp.NewModel("anytime")
	// A knapsack-like instance with several improving incumbents.
	n := 12
	weights := []float64{3, 5, 7, 2, 4, 9, 6, 8, 3, 5, 7, 4}
	values := []float64{4, 7, 9, 3, 5, 13, 8, 11, 4, 6, 10, 5}
	e := milp.LinExpr{}
	for j := 0; j < n; j++ {
		v := m.AddBinary(-values[j], "")
		e = e.Add(v, weights[j])
	}
	m.AddConstr(e, milp.LE, 20, "cap")

	var progress []obs.Event
	res := solveModel(t, m, Params{Events: improvements(&progress)})
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if len(progress) == 0 {
		t.Fatal("no incumbent or bound events")
	}
	// Incumbents must improve monotonically.
	for i := 1; i < len(progress); i++ {
		if progress[i].Incumbent > progress[i-1].Incumbent+1e-9 {
			t.Errorf("incumbent worsened: %g → %g", progress[i-1].Incumbent, progress[i].Incumbent)
		}
	}
	last := progress[len(progress)-1]
	if !last.HasIncumbent {
		t.Error("final progress lacks incumbent")
	}
	if last.Incumbent < last.Bound-1e-6 {
		t.Errorf("incumbent %g below bound %g", last.Incumbent, last.Bound)
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := milp.NewModel("nodelimit")
	// A harder knapsack to ensure multiple nodes.
	e := milp.LinExpr{}
	for j := 0; j < 25; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*10), "")
		e = e.Add(v, 1+rng.Float64()*10)
	}
	m.AddConstr(e, milp.LE, 30, "cap")
	res := solveModel(t, m, Params{MaxNodes: 3})
	if res.Status != StatusNodeLimit && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Status == StatusNodeLimit && res.Nodes > 10 {
		t.Errorf("nodes = %d, expected early stop", res.Nodes)
	}
}

func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := milp.NewModel("timelimit")
	e := milp.LinExpr{}
	for j := 0; j < 40; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*10), "")
		e = e.Add(v, 1+rng.Float64()*10)
	}
	m.AddConstr(e, milp.LE, 50, "cap")
	start := time.Now()
	res := solveModel(t, m, Params{TimeLimit: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Errorf("solve took %v despite 50ms limit", elapsed)
	}
	if res.Status != StatusTimeLimit && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Anytime property: the bound stays valid for a stopped search.
	if res.HasIncumbent && res.Obj < res.Bound-1e-6 {
		t.Errorf("incumbent %g below bound %g", res.Obj, res.Bound)
	}
}

func TestGapToleranceStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := milp.NewModel("gap")
	e := milp.LinExpr{}
	for j := 0; j < 30; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*10), "")
		e = e.Add(v, 1+rng.Float64()*10)
	}
	m.AddConstr(e, milp.LE, 40, "cap")
	loose := solveModel(t, m, Params{GapTol: 0.5})
	if loose.Status != StatusOptimal {
		t.Fatalf("status = %v", loose.Status)
	}
	if loose.Gap > 0.5+1e-9 {
		t.Errorf("gap = %g exceeds requested 0.5", loose.Gap)
	}
	// The incumbent must be within 50% of the true optimum.
	tight := solveModel(t, m, Params{})
	if tight.Status != StatusOptimal {
		t.Fatalf("tight status = %v", tight.Status)
	}
	if loose.Obj > tight.Obj*0.5+1e-6 { // objectives negative: loose ≤ 0.5·opt means within factor 2
		t.Errorf("loose obj %g vs optimum %g violates gap guarantee", loose.Obj, tight.Obj)
	}
}

func TestBoundsNeverExceedIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		m := randomMILP(rng, 5, 3)
		var progress []obs.Event
		res, err := Solve(context.Background(), m.Compile(), Params{Events: improvements(&progress)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == StatusOptimal {
			for _, ev := range progress {
				if ev.Bound > res.Obj+1e-6 {
					t.Errorf("trial %d: reported bound %g above optimum %g", trial, ev.Bound, res.Obj)
				}
			}
		}
	}
}

// TestBoundImprovementsCountedWithoutListener: Stats.BoundImprovements is
// a property of the search, not of who is listening — the same
// single-threaded, node-capped solve reports the same positive count with
// and without an event sink.
func TestBoundImprovementsCountedWithoutListener(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := milp.NewModel("boundimps")
	e := milp.LinExpr{}
	for j := 0; j < 25; j++ {
		v := m.AddBinary(-(1 + rng.Float64()*10), "")
		e = e.Add(v, 1+rng.Float64()*10)
	}
	m.AddConstr(e, milp.LE, 30, "cap")

	silent := solveModel(t, m, Params{Threads: 1, MaxNodes: 200})
	var progress []obs.Event
	heard := solveModel(t, m, Params{Threads: 1, MaxNodes: 200, Events: improvements(&progress)})
	if silent.Stats.BoundImprovements == 0 {
		t.Fatal("no bound improvements counted without an event sink")
	}
	if silent.Stats.BoundImprovements != heard.Stats.BoundImprovements {
		t.Errorf("BoundImprovements = %d without a sink, %d with one",
			silent.Stats.BoundImprovements, heard.Stats.BoundImprovements)
	}
	if silent.Nodes != heard.Nodes || silent.Bound != heard.Bound || silent.Obj != heard.Obj {
		t.Errorf("listening changed the search: nodes %d/%d bound %g/%g obj %g/%g",
			silent.Nodes, heard.Nodes, silent.Bound, heard.Bound, silent.Obj, heard.Obj)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusTimeLimit:  "time limit",
		StatusNodeLimit:  "node limit",
		StatusNoProgress: "no progress",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", int(st), st.String())
		}
	}
}

func TestPseudocostScoring(t *testing.T) {
	pc := new(pseudocosts)
	pc.reset(3)
	if _, reliable := pc.score(0, 0.5); reliable {
		t.Error("unobserved variable reported reliable")
	}
	pc.record(0, true, 2.0, 0.5)  // up: 4 per unit
	pc.record(0, false, 1.0, 0.5) // down: 2 per unit
	score, reliable := pc.score(0, 0.5)
	if !reliable {
		t.Fatal("both directions observed but not reliable")
	}
	// up avg 4 * (1-0.5)=2; down avg 2*0.5=1 → product 2.
	if math.Abs(score-2) > 1e-9 {
		t.Errorf("score = %g, want 2", score)
	}
	// Degenerate observations are ignored.
	pc.record(1, true, -1, 0.5)
	pc.record(1, true, 1, 0)
	if pc.upCnt[1] != 0 {
		t.Error("invalid observations recorded")
	}
}

func TestDualSimplexNodeRepairAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 30; trial++ {
		m := randomMILP(rng, 3+rng.Intn(4), 2+rng.Intn(3))
		primal, err := Solve(context.Background(), m.Compile(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		dual, err := Solve(context.Background(), m.Compile(), Params{UseDualSimplex: true})
		if err != nil {
			t.Fatal(err)
		}
		if (primal.Status == StatusOptimal) != (dual.Status == StatusOptimal) {
			t.Fatalf("trial %d: primal %v vs dual %v", trial, primal.Status, dual.Status)
		}
		if primal.Status == StatusOptimal && math.Abs(primal.Obj-dual.Obj) > 1e-5 {
			t.Fatalf("trial %d: primal obj %g vs dual %g", trial, primal.Obj, dual.Obj)
		}
	}
}

// TestDualSimplexSurvivesFrequentRefactorization: every node LP that pivots
// ends on a fresh factorization its children warm start from, so on these
// larger models the dual-repaired search crosses refactorization boundaries
// at most nodes; it must still reach the primal-verified optimum. The
// periodic eta-length trigger is forced in internal/simplex (retain_test.go
// and warm_test.go, RefactorEvery 2).
func TestDualSimplexSurvivesFrequentRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		m := randomMILP(rng, 10+rng.Intn(4), 6+rng.Intn(3))
		primal, err := Solve(context.Background(), m.Compile(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		dual, err := Solve(context.Background(), m.Compile(), Params{UseDualSimplex: true})
		if err != nil {
			t.Fatal(err)
		}
		if (primal.Status == StatusOptimal) != (dual.Status == StatusOptimal) {
			t.Fatalf("trial %d: primal %v vs dual %v", trial, primal.Status, dual.Status)
		}
		if primal.Status == StatusOptimal && math.Abs(primal.Obj-dual.Obj) > 1e-5 {
			t.Fatalf("trial %d: primal obj %g vs dual %g", trial, primal.Obj, dual.Obj)
		}
		if dual.Stats.Refactorizations == 0 {
			t.Fatalf("trial %d: the search computed no factorization", trial)
		}
	}
}

func TestInitialIncumbentInstalled(t *testing.T) {
	// A knapsack with a known feasible start: the solver must begin with
	// an incumbent at least as good.
	m := milp.NewModel("mipstart")
	a := m.AddBinary(-10, "a")
	b := m.AddBinary(-13, "b")
	c := m.AddBinary(-7, "c")
	m.AddConstr(milp.Expr(a, 3.0, b, 4.0, c, 2.0), milp.LE, 6, "cap")
	comp := m.Compile()

	var progress []obs.Event
	res, err := Solve(context.Background(), comp, Params{
		InitialIncumbent: []float64{1, 0, 1}, // value 17, feasible
		Events:           improvements(&progress),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if len(progress) == 0 || progress[0].Incumbent > -17+1e-9 {
		t.Errorf("improvement events %v, want a first incumbent ≤ -17 from the MIP start", progress)
	}
	// Infeasible starts must be ignored, not installed.
	res2, err := Solve(context.Background(), m.Compile(), Params{InitialIncumbent: []float64{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusOptimal || math.Abs(res2.Obj-res.Obj) > 1e-9 {
		t.Errorf("bad MIP start corrupted the solve: %v %g", res2.Status, res2.Obj)
	}
}

// TestComputationalCheckRejectsNaN holds both tests of the incumbent check
// to failing on NaN: in a value, and in a row activity (x + s = 0 at
// x = −Inf, s = +Inf, both within their bounds).
func TestComputationalCheckRejectsNaN(t *testing.T) {
	m := milp.NewModel("nan")
	x := m.AddContinuous(math.Inf(-1), math.Inf(1), 1, "x")
	m.AddConstr(milp.Expr(x, 1.0), milp.LE, 0, "c")
	comp := m.Compile()
	s := &searcher{comp: comp, rootL: comp.Problem.L, rootU: comp.Problem.U}
	for _, tc := range []struct {
		name string
		x    []float64
	}{
		{"value", []float64{math.NaN(), 0}},
		{"activity", []float64{math.Inf(-1), math.Inf(1)}},
	} {
		if s.checkFeasibleComputational(tc.x, make([]float64, 1)) {
			t.Errorf("%s: %v accepted as feasible", tc.name, tc.x)
		}
	}
	if !s.checkFeasibleComputational([]float64{-1, 1}, make([]float64, 1)) {
		t.Error("feasible point x = −1, s = 1 rejected")
	}
}
