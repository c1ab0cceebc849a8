// Package milpjoin reproduces "Solving the Join Ordering Problem via Mixed
// Integer Linear Programming" (Trummer & Koch, SIGMOD 2017): a transformation
// of left-deep join ordering into MILP, solved by a from-scratch pure-Go MILP
// solver (sparse revised simplex + branch and bound) standing in for Gurobi.
//
// The public API is the joinorder package: a context-aware, strategy-agnostic
// entry point over the MILP approach and every baseline the paper compares
// against. Cancel the context mid-solve and the MILP strategy returns its
// best incumbent with a proven optimality bound — the paper's anytime
// property as a Go idiom:
//
//	res, err := joinorder.Optimize(ctx, query, joinorder.Options{
//		Strategy: "milp", // or dp-leftdeep, dp-bushy, ikkbz, greedy, ...
//		// TimeLimit is a deadline on ctx: the earlier one wins.
//		Budget: joinorder.Budget{TimeLimit: 10 * time.Second},
//	})
//
// The solver stack is observable end to end: Options.OnEvent streams typed
// events (cut rounds, root LP, incumbents, bounds, injected incumbents,
// worker lifecycle) with serialised delivery and monotone incumbent/bound
// guarantees, and every MILP Result carries per-phase Stats (wall time per
// phase, simplex iterations, LU refactorizations, per-worker node counts). Events, Stats, and Result marshal
// to JSON; cmd/joinopt exposes them via -stats, -trace-events, -json, and
// an expvar/pprof -metrics endpoint.
//
// Everything under internal/ is implementation detail: internal/core holds
// the encoder (the paper's contribution) and hands the encoded model to
// internal/bb's branch and bound, and internal/experiments holds the
// harnesses regenerating the paper's figures. Entry points: the joinorder
// package, cmd/joinopt, cmd/figures, and the examples/ directory.
package milpjoin
