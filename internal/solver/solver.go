// Package solver is the user-facing MILP solver facade: it compiles a model
// (with optional root cuts) to computational form, runs branch and bound on
// it, and maps the incumbent back to model space. It exposes the solver
// features the paper obtains from Gurobi: anytime incumbents with optimality
// bounds, MIP-gap and time-limit termination, and parallel search.
package solver

import (
	"context"
	"math"
	"runtime/pprof"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/milp"
	"milpjoin/internal/obs"
)

// Params tune the solver.
type Params struct {
	// TimeLimit bounds wall-clock time (zero: none).
	TimeLimit time.Duration
	// GapTol is the relative MIP gap at which search stops (default 1e-6).
	GapTol float64
	// Threads is the number of parallel branch-and-bound workers.
	Threads int
	// MaxNodes bounds explored nodes (zero: none); see bb.Params.MaxNodes
	// for how the limit counts.
	MaxNodes int
	// CutRounds runs this many rounds of root Gomory mixed-integer cut
	// generation before branch and bound (0: off).
	CutRounds int
	// OnEvent receives the full structured event stream of the solve:
	// cut rounds, the root LP relaxation, incumbents, bound improvements,
	// node batches, and worker lifecycle. Callbacks are serialised (never concurrent) and must be
	// fast: they run on solver goroutines, some while search locks are
	// held. Objective values include the model's objective constant.
	OnEvent func(obs.Event)
	// InitialSolution optionally seeds the search with a known feasible
	// assignment in model space (a "MIP start"), length NumVars. An
	// infeasible start is ignored.
	InitialSolution []float64
	// Incumbents, when non-nil, is a live injection feed: candidate
	// feasible assignments in model space (length NumVars, same space as
	// InitialSolution) published while the solve runs, e.g. by portfolio
	// peers racing the same problem. Branch and bound drains it at node
	// boundaries without blocking, scales each candidate like
	// InitialSolution and offers it; infeasible or worse candidates are
	// dropped silently. The sender owns the channel; closing it stops the
	// feed, and nothing reads it once the solve returns, so a sender must
	// not block on a full channel past that point.
	Incumbents <-chan []float64
}

// Result reports the outcome.
type Result struct {
	// Status is branch and bound's termination status. A context that
	// was canceled reports bb.StatusCanceled; one whose deadline expired
	// reports bb.StatusTimeLimit, since deadlines and Params.TimeLimit
	// compose as one budget.
	Status   bb.Status
	Solution *milp.Solution // best solution found, nil if none
	// Bound is the proven lower bound on the optimal objective,
	// including the model constant.
	Bound float64
	// Gap is the relative gap between Solution and Bound.
	Gap          float64
	Nodes        int
	SimplexIters int
	Elapsed      time.Duration
	// Stats aggregates per-phase effort: wall time per phase, simplex
	// iterations, LU refactorizations, peak open-node count, and
	// per-worker node counts.
	Stats obs.Stats
}

// effectiveTimeLimit combines the configured time limit with the context
// deadline: the effective budget is the minimum of the two, measured from
// now. A zero configured limit means "no limit", in which case the context
// deadline (if any) governs alone.
func effectiveTimeLimit(ctx context.Context, now time.Time, configured time.Duration) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return configured
	}
	remaining := dl.Sub(now)
	if remaining < time.Nanosecond {
		// Deadline already passed; keep a strictly positive limit so
		// "zero" does not read as "unlimited" downstream.
		remaining = time.Nanosecond
	}
	if configured <= 0 || remaining < configured {
		return remaining
	}
	return configured
}

// Solve minimizes the model. The context governs cancellation: cancelling
// it mid-solve returns promptly with bb.StatusCanceled and the best
// incumbent and bound found so far, and a context deadline composes with
// Params.TimeLimit as the minimum of the two budgets (bb.StatusTimeLimit). A
// context that has already ended returns immediately, before compilation or
// branch and bound start.
func Solve(ctx context.Context, m *milp.Model, params Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if params.GapTol <= 0 {
		params.GapTol = 1e-6
	}
	if err := ctx.Err(); err != nil {
		return &Result{Status: bb.ContextStatus(err), Bound: math.Inf(-1)}, nil
	}
	params.TimeLimit = effectiveTimeLimit(ctx, start, params.TimeLimit)

	// The emitter serialises events from every phase against one
	// solve-wide clock. The sink shifts objective values by the model's
	// objective constant; events emitted before branch and bound starts
	// carry ±Inf objective values, which the shift leaves alone.
	objConst := m.ObjConstant()
	var emitter *obs.Emitter
	if params.OnEvent != nil {
		onEvent := params.OnEvent
		emitter = obs.NewEmitter(start, func(ev obs.Event) {
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
	if params.CutRounds > 0 {
		cutStart := time.Now()
		pprof.Do(ctx, pprof.Labels("milp_phase", "cuts"), func(context.Context) {
			work, totalCuts = addGomoryCuts(work, params.CutRounds, 16, func(round, added, iters int) {
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

	comp := work.Compile()
	bbParams := bb.Params{
		TimeLimit:  params.TimeLimit,
		GapTol:     params.GapTol,
		Threads:    params.Threads,
		MaxNodes:   params.MaxNodes,
		Events:     emitter,
		Incumbents: params.Incumbents,
	}
	if len(params.InitialSolution) == m.NumVars() {
		scaled := make([]float64, len(params.InitialSolution))
		for j, v := range params.InitialSolution {
			scaled[j] = v / comp.ColScale[j]
		}
		bbParams.InitialIncumbent = scaled
	}

	res, err := bb.Solve(ctx, comp, bbParams)
	if err != nil {
		return nil, err
	}

	// The search-phase stats from branch and bound, plus the cut phase.
	stats := res.Stats
	stats.CutTime = cutTime
	stats.CutRounds = cutRounds
	stats.CutsAdded = totalCuts
	stats.TotalTime = time.Since(start)
	stats.Events = emitter.Count()

	out := &Result{
		Status:       res.Status,
		Bound:        res.Bound + objConst,
		Gap:          res.Gap,
		Nodes:        res.Nodes,
		SimplexIters: res.SimplexIters,
		Elapsed:      time.Since(start),
		Stats:        stats,
	}

	switch res.Status {
	case bb.StatusInfeasible:
		out.Bound = math.Inf(1)
	case bb.StatusUnbounded:
		out.Bound = math.Inf(-1)
	}

	if res.HasIncumbent {
		vals := comp.Unscale(res.X[:m.NumVars()])
		// Prefer integral values where the rounding stays feasible.
		rounded := append([]float64(nil), vals...)
		for j := 0; j < m.NumVars(); j++ {
			if m.IsIntegral(milp.Var(j)) {
				rounded[j] = math.Round(rounded[j])
			}
		}
		if m.CheckFeasible(rounded, 1e-5) == nil {
			vals = rounded
		}
		out.Solution = &milp.Solution{Values: vals, Obj: m.EvalObjective(vals)}
	}
	return out, nil
}
