package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// Result is the outcome of an end-to-end MILP-based optimization run.
type Result struct {
	// Plan is the best plan found (nil when the search found none).
	Plan *plan.Plan
	// ExactCost is the plan's exact cost under the matching cost.Spec.
	ExactCost float64
	// Solution is the incumbent in model space, nil if none. Its Obj is
	// the plan's objective under the MILP's approximated cost, objective
	// constant included.
	Solution *milp.Solution
	// Status is branch and bound's termination status. A canceled context
	// reports bb.StatusCanceled, an expired one bb.StatusTimeLimit.
	Status bb.Status
	// Bound is the proven lower bound on the optimal objective, including
	// the model constant.
	Bound float64
	// Gap is branch and bound's relative gap at termination, taken on the
	// objective without the model constant, as the search sees it.
	Gap     float64
	Nodes   int
	Elapsed time.Duration
	// Stats aggregates per-phase effort: wall time per phase, simplex
	// iterations, LU refactorizations, peak open-node count, and
	// per-worker node counts.
	Stats obs.Stats
	// MIPStart reports which initial incumbent survived the feasibility
	// check and seeded branch and bound: "plan" (Options.InitialPlan),
	// "greedy" (the default heuristic), or "" when the search started
	// cold.
	MIPStart string
}

// Spec returns the exact-costing spec matching the encoder options: the
// same metric and operator, and the default physical parameters the MILP
// approximates.
func (o Options) Spec() cost.Spec {
	return cost.Spec{Metric: o.Metric, Op: o.Op, Params: cost.Params{}.WithDefaults()}
}

// Optimize encodes the query, solves the MILP with branch and bound under
// the search knobs of opts, and decodes the incumbent into a plan. The
// event stream (Options.OnEvent) surfaces the incumbent objective and
// lower bound as optimization progresses, giving the guaranteed-quality
// traces of the paper's Figure 2.
//
// Options.InitialPlan, else a greedy join order, is injected as a MIP start
// where the encoding supports it, so the search has an incumbent (and hence
// a bounded Cost/LB ratio) from the first moment — mirroring the primal
// heuristics commercial solvers run.
//
// Cancelling the context mid-solve returns promptly with bb.StatusCanceled
// and the best incumbent plan found so far; a context deadline ends the
// search with bb.StatusTimeLimit.
//
// The model is built and compiled into an encoding from a process-wide
// pool and handed back once the plan is decoded and costed, so a process
// that optimizes many queries grows its model storage once. Nothing in the
// Result refers to it.
func Optimize(ctx context.Context, q *qopt.Query, opts Options) (*Result, error) {
	enc := encodings.Get().(*Encoding)
	defer enc.release()
	if err := enc.encode(q, opts); err != nil {
		return nil, err
	}
	mipStart := ""
	start := enc.feasibleAssignment(opts.InitialPlan)
	if start != nil {
		mipStart = "plan"
	} else if greedy, _, gerr := dp.GreedyLeftDeep(q, opts.Spec()); gerr == nil {
		if start = enc.feasibleAssignment(greedy); start != nil {
			mipStart = "greedy"
		}
	}
	var incumbents func() []float64
	if opts.Incumbents != nil {
		incumbents = func() []float64 { return enc.feasibleAssignment(opts.Incumbents()) }
	}
	out, err := solve(ctx, enc.Model, &enc.comp, opts, start, incumbents)
	if err != nil {
		return nil, err
	}
	out.MIPStart = mipStart
	if out.Solution == nil {
		return out, nil
	}
	if out.Plan, err = enc.Decode(out.Solution); err != nil {
		return nil, fmt.Errorf("core: decoding incumbent: %w", err)
	}
	if out.ExactCost, err = plan.Cost(q, out.Plan, opts.Spec()); err != nil {
		return nil, err
	}
	return out, nil
}

// encodings holds the encodings Optimize builds its models in.
var encodings = sync.Pool{New: func() any { return &Encoding{Model: milp.NewModel("")} }}

// release hands the encoding back to the pool, holding nothing of the
// query it encoded: no query, options, callback or name.
func (e *Encoding) release() {
	e.reset()
	e.Model.Reset("")
	encodings.Put(e)
}

// feasibleAssignment returns the model-space assignment of pl when the
// encoding represents it feasibly, and nil otherwise (also for a nil plan).
func (e *Encoding) feasibleAssignment(pl *plan.Plan) []float64 {
	if pl == nil {
		return nil
	}
	vals, err := e.AssignmentForPlan(pl)
	if err != nil || e.Model.CheckFeasible(vals, 1e-6) != nil {
		return nil
	}
	return vals
}

// solve minimizes m under the search knobs of opts: optional root cut
// rounds, compilation into comp, then branch and bound from the model-space
// MIP start (nil: none, else scaled in place) with the live injection
// feed. Events, Bound and the incumbent's objective include the model's
// objective constant; the incumbent is unscaled and rounded to integral
// values where that stays feasible.
func solve(ctx context.Context, m *milp.Model, comp *milp.Computational, opts Options, start []float64, incumbents func() []float64) (*Result, error) {
	begin := time.Now()
	// The emitter serialises events from every phase against one
	// solve-wide clock. The sink shifts objective values by the model's
	// objective constant; events emitted before branch and bound starts
	// carry ±Inf objective values, which the shift leaves alone.
	objConst := m.ObjConstant()
	var emitter *obs.Emitter
	if onEvent := opts.OnEvent; onEvent != nil {
		emitter = obs.NewEmitter(begin, func(ev obs.Event) {
			ev.Incumbent += objConst
			ev.Bound += objConst
			if ev.Kind == obs.KindLPRelaxation {
				ev.Objective += objConst
			}
			ev.Gap = obs.RelGap(ev.Incumbent, ev.Bound)
			onEvent(ev)
		})
	}

	work := m
	var cutTime time.Duration
	var cutRounds, totalCuts int
	if opts.CutRounds > 0 {
		cutStart := time.Now()
		pprof.Do(ctx, pprof.Labels("milp_phase", "cuts"), func(context.Context) {
			work, totalCuts = addGomoryCuts(work, opts.CutRounds, 16, func(round, added, iters int) {
				cutRounds = round
				emitter.Emit(obs.Event{
					Kind:      obs.KindCutRound,
					Worker:    -1,
					Incumbent: math.Inf(1),
					Bound:     math.Inf(-1),
					Rounds:    round,
					Cuts:      added,
					Iters:     iters,
				})
			})
		})
		cutTime = time.Since(cutStart)
	}

	work.CompileInto(comp)
	params := bb.Params{
		GapTol:     opts.GapTol,
		Threads:    opts.Threads,
		MaxNodes:   opts.MaxNodes,
		Events:     emitter,
		Incumbents: incumbents,
	}
	if start != nil {
		for j := range start {
			start[j] /= comp.ColScale[j]
		}
		params.InitialIncumbent = start
	}
	res, err := bb.Solve(ctx, comp, params)
	if err != nil {
		return nil, err
	}

	out := &Result{
		Status: res.Status,
		Bound:  res.Bound + objConst,
		Gap:    res.Gap,
		Nodes:  res.Nodes,
		Stats:  res.Stats,
	}
	if res.Status == bb.StatusUnbounded {
		out.Bound = math.Inf(-1)
	}
	if res.HasIncumbent {
		vals := comp.Unscale(res.X[:m.NumVars()])
		// Prefer integral values where the rounding stays feasible.
		rounded := append([]float64(nil), vals...)
		for j := range rounded {
			if m.IsIntegral(milp.Var(j)) {
				rounded[j] = math.Round(rounded[j])
			}
		}
		if m.CheckFeasible(rounded, 1e-5) == nil {
			vals = rounded
		}
		out.Solution = &milp.Solution{Values: vals, Obj: m.EvalObjective(vals)}
	}
	out.Stats.CutTime, out.Stats.CutRounds, out.Stats.CutsAdded = cutTime, cutRounds, totalCuts
	out.Stats.Events = emitter.Count()
	out.Elapsed = time.Since(begin)
	out.Stats.TotalTime = out.Elapsed
	return out, nil
}

// Stats returns the size snapshot of the encoded model (variables,
// integer variables, constraints, nonzeros) — the quantities of Figure 1
// and Theorems 1–2.
func (e *Encoding) Stats() milp.Snapshot { return e.Model.Stats() }
