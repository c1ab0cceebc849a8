package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/core"
	"milpjoin/internal/dp"
	"milpjoin/internal/milp"
	"milpjoin/internal/plan"
	"milpjoin/internal/presolve"
	"milpjoin/internal/simplex"
	"milpjoin/internal/sparse"
)

// staged is what the stage-by-stage replay of one op produced: the same
// answer joinorder.Optimize gives, plus the intermediate objects the layer
// probes need.
type staged struct {
	enc      *core.Encoding
	pre      *presolve.Result
	comp     *milp.Computational
	bb       *bb.Result
	objConst float64
	plan     *plan.Plan
	cost     float64 // exact cost of plan
	obj      float64 // MILP objective of the incumbent
}

// stagedSolve replays what joinorder.Optimize does for strategy "milp", one
// public layer entry point at a time, with a span around each call:
//
//	core.Encode → greedy MIP start → [ presolve.Apply → Model.Compile →
//	bb.Solve → Unscale/Postsolve ] → Encoding.Decode → plan.Cost
//
// The bracketed part is what solver.Solve does; its span's self time is the
// solver facade's glue.
func (s solverSpec) stagedSolve(ctx context.Context, tr *tracer, op int, in instance) (*staged, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	st := &staged{}
	var err error

	sp := tr.begin("core.Encode", op, root)
	st.enc, err = core.Encode(in.q, core.Options{Precision: core.PrecisionMedium, Metric: hashSpec.Metric, Op: hashSpec.Op})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m := st.enc.Model

	sp = tr.begin("core.mipstart", op, root)
	var start []float64
	if greedy, _, gerr := dp.GreedyLeftDeep(in.q, hashSpec); gerr == nil {
		if vals, aerr := st.enc.AssignmentForPlan(greedy); aerr == nil && m.CheckFeasible(vals, 1e-6) == nil {
			start = vals
		}
	}
	tr.end(sp)

	solve := tr.begin("solver.Solve", op, root)
	sp = tr.begin("presolve.Apply", op, solve)
	st.pre, err = presolve.Apply(m, presolve.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if st.pre.Status != presolve.StatusReduced {
		return nil, fmt.Errorf("presolve ended with status %d; the replay covers reduced models only", st.pre.Status)
	}
	work := st.pre.Model

	sp = tr.begin("milp.Compile", op, solve)
	st.comp = work.Compile()
	tr.end(sp)
	st.objConst = work.ObjConstant()

	params := bb.Params{TimeLimit: s.deadline, GapTol: 1e-6, Threads: 1, MaxNodes: s.maxNodes}
	if start != nil {
		reduced := st.pre.Reduce(start)
		params.InitialIncumbent = make([]float64, len(reduced))
		for j := range reduced {
			params.InitialIncumbent[j] = reduced[j] / st.comp.ColScale[j]
		}
	}
	sp = tr.begin("bb.Solve", op, solve)
	st.bb, err = bb.Solve(ctx, st.comp, params)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !st.bb.HasIncumbent {
		return nil, fmt.Errorf("branch and bound ended with status %v and no incumbent", st.bb.Status)
	}

	sp = tr.begin("solver.postsolve", op, solve)
	vals := st.pre.Postsolve(st.comp.Unscale(st.bb.X[:work.NumVars()]))
	rounded := append([]float64(nil), vals...)
	for j := 0; j < m.NumVars(); j++ {
		if m.IsIntegral(milp.Var(j)) {
			rounded[j] = math.Round(rounded[j])
		}
	}
	if m.CheckFeasible(rounded, 1e-5) == nil {
		vals = rounded
	}
	st.obj = m.EvalObjective(vals)
	tr.end(sp)
	tr.end(solve)

	sp = tr.begin("core.Decode", op, root)
	st.plan, err = st.enc.Decode(&milp.Solution{Values: vals, Obj: st.obj})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plan.Cost", op, root)
	st.cost, err = plan.Cost(in.q, st.plan, hashSpec)
	tr.end(sp)
	return st, err
}

// kernelCounts accumulates what the LP and LU probes counted, and holds the
// factor and scratch storage the factorization probe reuses from op to op,
// as a simplex workspace does from refactorization to refactorization.
type kernelCounts struct {
	lu                                sparse.LU
	scratch                           sparse.FactorScratch
	rootIters, rootRefactors, rootSec float64
	rootQuality                       []float64
	warmIters                         float64
	warmSolves                        int
	luNnz, basisNnz                   float64
}

// probeKernels times the LP and LU kernels on the op's compiled root LP: a
// cold root solve, one warm re-solve after a single bound change on the root
// basis (what a branch-and-bound child node costs), and a factorization of
// the final root basis with one forward and one transposed solve.
func probeKernels(tr *tracer, op int, st *staged, kc *kernelCounts) error {
	root := tr.begin("probe", op, -1)
	defer tr.end(root)
	p := st.comp.Problem

	sp := tr.begin("simplex.Solve(cold)", op, root)
	cold, err := simplex.Solve(p, nil, simplex.Options{})
	kc.rootSec += tr.end(sp)
	if err != nil {
		return fmt.Errorf("cold root LP: %w", err)
	}
	if cold.Status != simplex.StatusOptimal {
		return fmt.Errorf("cold root LP ended %v", cold.Status)
	}
	kc.rootIters += float64(cold.Iters)
	kc.rootRefactors += float64(cold.Refactors)
	kc.rootQuality = append(kc.rootQuality, ratio(cold.Obj+st.objConst, st.obj))

	// The first fractional integer column is branched down, as the search
	// would; the re-solve uses branch and bound's default repair (primal
	// phase 1, no dual preference).
	for j := 0; j < st.comp.NumStructural; j++ {
		x := cold.X[j]
		if !st.comp.Integral[j] || math.Abs(x-math.Round(x)) < 1e-6 {
			continue
		}
		child := *p
		child.U = append([]float64(nil), p.U...)
		child.U[j] = math.Floor(x)
		sp = tr.begin("simplex.Solve(warm)", op, root)
		warm, err := simplex.Solve(&child, cold.Basis.Clone(), simplex.Options{})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("warm re-solve: %w", err)
		}
		kc.warmIters += float64(warm.Iters)
		kc.warmSolves++
		break
	}

	// The root basis as a matrix of its own.
	rows := p.NumRows()
	basis := sparse.NewTriplet(rows, rows)
	for k, col := range cold.Basis.Head {
		ri, rv := p.A.Col(col)
		for e := range ri {
			basis.Add(ri[e], k, rv[e])
		}
	}
	b := basis.Compress()
	lu := &kc.lu
	sp = tr.begin("sparse.FactorizeInto", op, root)
	err = sparse.FactorizeInto(lu, b, sparse.FactorOptions{}, &kc.scratch)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("factorizing the root basis: %w", err)
	}
	kc.luNnz += float64(lu.Nnz())
	kc.basisNnz += float64(b.Nnz())

	rhs := append([]float64(nil), p.B...)
	scratch := make([]float64, rows)
	sp = tr.begin("sparse.SolveInPlace", op, root)
	lu.SolveInPlace(rhs, scratch)
	tr.end(sp)
	cb := make([]float64, rows)
	for k, col := range cold.Basis.Head {
		cb[k] = p.C[col]
	}
	sp = tr.begin("sparse.SolveTransposeInPlace", op, root)
	lu.SolveTransposeInPlace(cb, scratch)
	tr.end(sp)
	return nil
}

// trace measures the per-layer metrics of a solver workload: one untraced
// block through joinorder.Optimize, then one traced block that replays every
// op stage by stage and probes the kernels on its root LP.
func (s solverSpec) trace(ctx context.Context, env *runEnv) (*outcome, error) {
	tr := newTracer()
	var leftdeepSec, greedySec []float64
	insts, err := s.setup(ctx)
	if err != nil {
		return nil, err
	}
	for i, in := range insts { // the reference computations, timed one by one
		if in.ref.exact {
			sp := tr.begin("dp.OptimizeLeftDeep", i, -1)
			_, _, err = dp.OptimizeLeftDeep(ctx, in.q, hashSpec, dp.Options{})
			leftdeepSec = append(leftdeepSec, tr.end(sp))
		}
		sp := tr.begin("dp.GreedyLeftDeep", i, -1)
		_, _, gerr := dp.GreedyLeftDeep(in.q, hashSpec)
		greedySec = append(greedySec, tr.end(sp))
		if err != nil || gerr != nil {
			return nil, fmt.Errorf("reference for %v: %v %v", in.key, err, gerr)
		}
	}

	// Each op runs untraced through joinorder.Optimize and then staged, back
	// to back: the machine's speed drifts by tens of percent over seconds,
	// and the pair sees the same speed.
	sm := newSolverSamples(insts)
	cal := newCalibrator()
	order := blockOrder(env.seed, 0, len(insts))

	out := &outcome{values: map[string]float64{}}
	var (
		kc                              kernelCounts
		sizes                           milp.Snapshot
		rowsRemoved, colsRemoved        float64
		stats                           = map[string]float64{}
		matched, okOps                  int
		outsideSolverSec, stagedNonSolv float64
	)
	var tracedSolveSec, untracedSolveSec float64
	for _, i := range order {
		in := insts[i]
		out.attempted++
		s.block(ctx, sm, cal, []int{i})
		t0 := time.Now()
		st, err := s.stagedSolve(ctx, tr, i, in)
		tracedSolveSec += time.Since(t0).Seconds()
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("%s staged replay failed: %v", in.key, err))
			continue
		}
		if st.bb.Status == bb.StatusTimeLimit {
			out.failed++
			stats["stalled"]++
			out.notes = append(out.notes, fmt.Sprintf("%s stalled in the staged replay", in.key))
			continue
		}
		okOps++
		snap := st.enc.Stats()
		sizes.Vars += snap.Vars
		sizes.Constrs += snap.Constrs
		sizes.Nonzeros += snap.Nonzeros
		rowsRemoved += ratio(float64(st.pre.RowsRemoved), float64(snap.Constrs))
		colsRemoved += ratio(float64(st.pre.ColsRemoved), float64(snap.Vars))
		bs := st.bb.Stats
		stats["nodes"] += float64(st.bb.Nodes)
		stats["iters"] += float64(st.bb.SimplexIters)
		stats["refactors"] += float64(bs.Refactorizations)
		stats["lp_sec"] += bs.LPTime.Seconds()
		stats["heur_sec"] += bs.HeuristicTime.Seconds()
		stats["heur_calls"] += float64(bs.HeuristicCalls)
		stats["heur_ok"] += float64(bs.HeuristicSuccesses)
		stats["scanned"] += float64(bs.PricingScannedCols)
		stats["scannable"] += float64(bs.PricingTotalCols)
		if u := sm.last[i]; u.err == nil {
			untracedSolveSec += u.wall.Seconds()
			if u.res.Nodes == st.bb.Nodes && math.Abs(u.res.Bound-(st.bb.Bound+st.objConst)) <= relTol*math.Abs(u.res.Bound) {
				matched++
			}
			outsideSolverSec += (u.wall - u.res.Elapsed).Seconds()
		}
		if err := probeKernels(tr, i, st, &kc); err != nil {
			out.notes = append(out.notes, fmt.Sprintf("%s kernel probe failed: %v", in.key, err))
		}
	}

	n := float64(okOps)
	layers := tr.byLayer()
	perOp := func(name string) (total, self float64) { return layers[name].perOp(okOps) }
	encode, _ := perOp("core.Encode")
	mipstart, _ := perOp("core.mipstart")
	decode, _ := perOp("core.Decode")
	recost, _ := perOp("plan.Cost")
	apply, _ := perOp("presolve.Apply")
	compile, _ := perOp("milp.Compile")
	bbSolve, _ := perOp("bb.Solve")
	solveTotal, solveSelf := perOp("solver.Solve")
	warm, _ := layers["simplex.Solve(warm)"].perOp(kc.warmSolves)
	factorize, _ := perOp("sparse.FactorizeInto")
	ftran, _ := perOp("sparse.SolveInPlace")
	btran, _ := perOp("sparse.SolveTransposeInPlace")
	stagedNonSolv = encode + mipstart + decode + recost

	v := out.values
	v["core.encode_ms"] = ms(encode)
	v["core.mipstart_ms"] = ms(mipstart)
	v["core.decode_ms"] = ms(decode)
	v["core.vars"] = ratio(float64(sizes.Vars), n)
	v["core.constrs"] = ratio(float64(sizes.Constrs), n)
	v["core.nonzeros"] = ratio(float64(sizes.Nonzeros), n)
	v["presolve.apply_ms"] = ms(apply)
	v["presolve.rows_removed_share"] = ratio(rowsRemoved, n)
	v["presolve.cols_removed_share"] = ratio(colsRemoved, n)
	v["milp.compile_ms"] = ms(compile)
	v["simplex.root_cold_ms"] = ms(ratio(kc.rootSec, n))
	v["simplex.root_iters"] = ratio(kc.rootIters, n)
	v["simplex.root_us_per_iter"] = us(ratio(kc.rootSec, kc.rootIters))
	v["simplex.root_refactors"] = ratio(kc.rootRefactors, n)
	v["simplex.warm_resolve_us"] = us(warm)
	v["simplex.warm_iters"] = ratio(kc.warmIters, float64(kc.warmSolves))
	v["simplex.pricing_scan_share"] = ratio(stats["scanned"], stats["scannable"])
	v["sparse.factorize_us"] = us(factorize)
	v["sparse.lu_nnz_per_basis_nnz"] = ratio(kc.luNnz, kc.basisNnz)
	v["sparse.ftran_us"] = us(ftran)
	v["sparse.btran_us"] = us(btran)
	v["bb.solve_ms"] = ms(bbSolve)
	v["bb.self_ms"] = ms(bbSolve - ratio(stats["lp_sec"]+stats["heur_sec"], n))
	v["bb.nodes"] = ratio(stats["nodes"], n)
	v["bb.nodes_per_s"] = ratio(stats["nodes"], bbSolve*n)
	v["bb.lp_share"] = ratio(stats["lp_sec"], bbSolve*n)
	v["bb.iters_per_node"] = ratio(stats["iters"], stats["nodes"])
	v["bb.refactors_per_node"] = ratio(stats["refactors"], stats["nodes"])
	v["bb.heuristic_ms"] = ms(ratio(stats["heur_sec"], n))
	v["bb.heuristic_success_share"] = ratio(stats["heur_ok"], stats["heur_calls"])
	v["bb.root_bound_quality"] = mean(kc.rootQuality)
	v["bb.stalled_ops"] = stats["stalled"]
	v["solver.solve_ms"] = ms(solveTotal)
	v["solver.glue_ms"] = ms(solveSelf)
	v["plan.cost_us"] = us(recost)
	v["joinorder.self_ms"] = ms(ratio(outsideSolverSec, n) - stagedNonSolv)
	v["dp.leftdeep_ms"] = ms(mean(leftdeepSec))
	v["dp.greedy_us"] = us(mean(greedySec))
	v["calib.factor_p50"] = median(sm.factors)
	v["calib.factor_spread"] = ratio(quantile(sm.factors, 0.9)-quantile(sm.factors, 0.1), median(sm.factors))
	v["calib.ops_retried"] = float64(sm.retried)
	v["wall.p50_ms_raw"] = median(perOpMedians(sm.raw))
	v["trace.overhead_share"] = ratio(tracedSolveSec, untracedSolveSec) - 1
	v["trace.replica_match_share"] = ratio(float64(matched), n)

	counts := map[string]float64{}
	for k, x := range stats {
		counts["bb."+k] = x
	}
	counts["ops"] = n
	if err := tr.write(env.outDir, s.name, env.seed, counts); err != nil {
		return nil, err
	}
	return out, nil
}
