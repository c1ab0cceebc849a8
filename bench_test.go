// Benchmarks regenerating the paper's evaluation (one benchmark family per
// figure) plus ablations over the design choices called out in DESIGN.md.
//
// Figure-2-style benchmarks run one full optimization per iteration under a
// small time budget and report the proven Cost/LB gap as a custom metric;
// absolute numbers depend on the machine, but the paper's shape — the MILP
// approach returns guaranteed-quality plans on query sizes where dynamic
// programming returns nothing — is visible directly in the metrics.
package milpjoin_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"milpjoin/internal/bb"
	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/experiments"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// --- Figure 1: MILP model size census -----------------------------------

func BenchmarkFigure1Census(b *testing.B) {
	cfg := experiments.Figure1Config{
		Sizes:          []int{10, 20, 30, 40, 50, 60},
		QueriesPerSize: 3,
		Shape:          workload.Star,
		Metric:         cost.OperatorCost,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(float64(last.MedianVars), "vars@60t")
			b.ReportMetric(float64(last.MedianConstrs), "constrs@60t")
		}
	}
}

// --- Figure 2: anytime quality, MILP vs dynamic programming -------------

// benchmarkFigure2Cell optimizes one random query per iteration under a
// small budget and reports the median proven Cost/LB ratio.
func benchmarkFigure2Cell(b *testing.B, shape workload.GraphShape, n int, prec core.Precision, budget time.Duration) {
	opts := core.Options{Precision: prec, Metric: cost.OperatorCost, Op: cost.HashJoin, Threads: 2}
	var gapSum float64
	var plans int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := workload.Generate(shape, n, int64(i%5)+1, workload.Config{})
		res, err := optimizeWithin(q, opts, budget)
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan != nil {
			plans++
			if !math.IsInf(res.Gap, 1) {
				gapSum += res.Gap
			}
		}
	}
	b.ReportMetric(float64(plans)/float64(b.N), "plans/run")
	b.ReportMetric(gapSum/float64(b.N), "avg-gap")
}

func BenchmarkFigure2Chain10ILPMedium(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Chain, 10, core.PrecisionMedium, 2*time.Second)
}
func BenchmarkFigure2Cycle10ILPMedium(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Cycle, 10, core.PrecisionMedium, 2*time.Second)
}
func BenchmarkFigure2Star10ILPMedium(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Star, 10, core.PrecisionMedium, 2*time.Second)
}
func BenchmarkFigure2Star20ILPMedium(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Star, 20, core.PrecisionMedium, 2*time.Second)
}
func BenchmarkFigure2Star20ILPLow(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Star, 20, core.PrecisionLow, 2*time.Second)
}
func BenchmarkFigure2Star20ILPHigh(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Star, 20, core.PrecisionHigh, 2*time.Second)
}
func BenchmarkFigure2Chain30ILPLow(b *testing.B) {
	benchmarkFigure2Cell(b, workload.Chain, 30, core.PrecisionLow, 2*time.Second)
}

// benchmarkFigure2DP is the baseline side of Figure 2: plain dynamic
// programming under the same budget; plans/run collapses to zero once the
// 2^n table-subset space exceeds the budget.
func benchmarkFigure2DP(b *testing.B, shape workload.GraphShape, n int, budget time.Duration) {
	var plans int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := workload.Generate(shape, n, int64(i%5)+1, workload.Config{})
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		_, _, err := dp.OptimizeLeftDeep(ctx, q, cost.DefaultSpec(), dp.Options{})
		cancel()
		if err == nil {
			plans++
		} else if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, dp.ErrTooLarge) {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plans)/float64(b.N), "plans/run")
}

func BenchmarkFigure2Star10DP(b *testing.B) {
	benchmarkFigure2DP(b, workload.Star, 10, 2*time.Second)
}
func BenchmarkFigure2Star20DP(b *testing.B) {
	benchmarkFigure2DP(b, workload.Star, 20, 2*time.Second)
}
func BenchmarkFigure2Chain30DP(b *testing.B) {
	benchmarkFigure2DP(b, workload.Chain, 30, 2*time.Second)
}

// --- Ablations -----------------------------------------------------------

// Threshold-ladder precision ablation: encoding precision versus solve time
// on a query size every configuration can close.
func benchmarkPrecisionAblation(b *testing.B, prec core.Precision) {
	q := workload.Generate(workload.Star, 10, 3, workload.Config{})
	opts := core.Options{Precision: prec, Metric: cost.OperatorCost, Op: cost.HashJoin, Threads: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := optimizeWithin(q, opts, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan == nil {
			b.Fatal("no plan")
		}
	}
}

func BenchmarkAblationPrecisionHigh(b *testing.B) { benchmarkPrecisionAblation(b, core.PrecisionHigh) }
func BenchmarkAblationPrecisionMedium(b *testing.B) {
	benchmarkPrecisionAblation(b, core.PrecisionMedium)
}
func BenchmarkAblationPrecisionLow(b *testing.B) { benchmarkPrecisionAblation(b, core.PrecisionLow) }

// Parallel search ablation (the solver feature the paper highlights).
func benchmarkThreads(b *testing.B, threads int) {
	q := workload.Generate(workload.Chain, 10, 4, workload.Config{})
	opts := core.Options{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin, Threads: threads}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimizeWithin(q, opts, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThreads1(b *testing.B) { benchmarkThreads(b, 1) }
func BenchmarkAblationThreads4(b *testing.B) { benchmarkThreads(b, 4) }

// Gomory cut ablation: root cuts on the join encodings (sparse-cut filter
// keeps only cheap ones; the big-M structure limits their value, which is
// itself a finding worth measuring).
func benchmarkCuts(b *testing.B, rounds int) {
	q := workload.Generate(workload.Star, 10, 3, workload.Config{})
	opts := core.Options{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin,
		Threads: 2, CutRounds: rounds}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := optimizeWithin(q, opts, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan == nil {
			b.Fatal("no plan")
		}
	}
}

func BenchmarkAblationCutsOff(b *testing.B)     { benchmarkCuts(b, 0) }
func BenchmarkAblationCuts2Rounds(b *testing.B) { benchmarkCuts(b, 2) }

// MIP-start ablation: the greedy warm start that anchors the anytime
// behaviour: the full pipeline against branch and bound on the encoded
// model with no start.
func BenchmarkAblationMIPStartOn(b *testing.B) {
	q := workload.Generate(workload.Star, 12, 2, workload.Config{})
	opts := core.Options{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin, Threads: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := optimizeWithin(q, opts, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(boolMetric(res.Plan != nil), "has-plan")
		}
	}
}

func BenchmarkAblationMIPStartOff(b *testing.B) {
	q := workload.Generate(workload.Star, 12, 2, workload.Config{})
	enc, err := core.Encode(q, core.Options{Precision: core.PrecisionMedium, Metric: cost.OperatorCost, Op: cost.HashJoin})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bb.Solve(context.Background(), enc.Model.Compile(), bb.Params{TimeLimit: 2 * time.Second, Threads: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(boolMetric(res.HasIncumbent), "has-plan")
		}
	}
}

// optimizeWithin runs core.Optimize under a context deadline limit away.
func optimizeWithin(q *qopt.Query, opts core.Options, limit time.Duration) (*core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	return core.Optimize(ctx, q, opts)
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
