package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/obs"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// Figure2Config parameterises the anytime comparison of Figure 2.
type Figure2Config struct {
	// Shapes lists the join graph structures (paper: chain, cycle, star).
	Shapes []workload.GraphShape
	// Sizes lists table counts (paper: 10, 20, …, 60).
	Sizes []int
	// QueriesPerCell is the number of random queries per (shape, size)
	// cell (paper: 20).
	QueriesPerCell int
	// Timeout is the optimization budget per query (paper: 60 s).
	Timeout time.Duration
	// Samples is the number of evenly spaced measurement points within
	// the timeout (paper: 10, i.e. every 6 s).
	Samples int
	// Precisions lists the MILP configurations to run (paper: all three).
	Precisions []core.Precision
	// Threads is the solver parallelism per optimization run.
	Threads int
	// Seed makes the workload reproducible.
	Seed int64
	// Metric/Op select the cost model (paper: hash joins).
	Metric cost.Metric
	Op     cost.Operator
}

// WithDefaults fills in a laptop-scale version of the paper's setup; pass
// explicit Sizes/Timeout to reproduce the full grid.
func (c Figure2Config) WithDefaults() Figure2Config {
	if c.Shapes == nil {
		c.Shapes = workload.Shapes()
	}
	if c.Sizes == nil {
		c.Sizes = []int{10, 20, 30, 40, 50, 60}
	}
	if c.QueriesPerCell <= 0 {
		c.QueriesPerCell = 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Samples <= 0 {
		c.Samples = 10
	}
	if c.Precisions == nil {
		c.Precisions = core.Precisions()
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Metric == cost.OperatorCost && c.Op == 0 {
		c.Op = cost.HashJoin
	}
	return c
}

// AlgorithmName identifies one plotted series.
func AlgorithmName(prec core.Precision) string {
	return fmt.Sprintf("ILP (%s precision)", prec)
}

// DPName is the dynamic programming series label.
const DPName = "DP"

// Figure2Cell is one subplot of Figure 2: median Cost/LB ratios over the
// sample grid for each algorithm, for one (shape, size) cell.
type Figure2Cell struct {
	Shape  workload.GraphShape
	Tables int
	// Times is the sample grid (shared by all series).
	Times []time.Duration
	// Series maps algorithm name → median Cost/LB ratio at each sample
	// time (+Inf where the median run has no plan yet).
	Series map[string][]float64
}

// Figure2 regenerates the data behind Figure 2. Cells are processed in
// order; the optional progress callback is invoked after each cell.
func Figure2(ctx context.Context, cfg Figure2Config, progress func(cell Figure2Cell)) ([]Figure2Cell, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	times := make([]time.Duration, cfg.Samples)
	for i := range times {
		times[i] = cfg.Timeout * time.Duration(i+1) / time.Duration(cfg.Samples)
	}

	var cells []Figure2Cell
	for _, shape := range cfg.Shapes {
		for _, n := range cfg.Sizes {
			cell := Figure2Cell{
				Shape:  shape,
				Tables: n,
				Times:  times,
				Series: map[string][]float64{},
			}
			ratios := map[string][][]float64{} // name → per-query ratio rows
			for qi := 0; qi < cfg.QueriesPerCell; qi++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				q := workload.Generate(shape, n, cfg.Seed+int64(qi), workload.Config{})

				tr := runDP(ctx, q, cfg)
				ratios[DPName] = append(ratios[DPName], sampleTrace(tr, times))

				for _, prec := range cfg.Precisions {
					tr, err := runMILP(ctx, q, cfg, prec)
					if err != nil {
						return nil, err
					}
					name := AlgorithmName(prec)
					ratios[name] = append(ratios[name], sampleTrace(tr, times))
				}
			}
			for name, rows := range ratios {
				med := make([]float64, len(times))
				for ti := range times {
					col := make([]float64, len(rows))
					for ri := range rows {
						col[ri] = rows[ri][ti]
					}
					med[ti] = median(col)
				}
				cell.Series[name] = med
			}
			if progress != nil {
				progress(cell)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// runDP runs the dynamic programming baseline under the timeout. DP has no
// anytime behaviour: the trace is empty until DP finishes, then the plan is
// optimal (ratio 1).
func runDP(ctx context.Context, q *qopt.Query, cfg Figure2Config) *Trace {
	tr := &Trace{}
	spec := cost.Spec{Metric: cfg.Metric, Op: cfg.Op, Params: cost.Params{}.WithDefaults()}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	start := time.Now()
	_, optCost, err := dp.OptimizeLeftDeep(ctx, q, spec, dp.Options{})
	if err != nil {
		return tr // too large or timed out: no plan within the budget
	}
	elapsed := time.Since(start)
	tr.Add(elapsed, optCost, optCost) // optimal: Cost/LB = 1 from here on
	return tr
}

// runMILP optimizes via the MILP encoding, reconstructing the anytime
// trajectory from the solver's structured event stream: incumbent and
// bound events carry the anytime state every other event kind shares, so
// the trace needs no ad-hoc solver hooks.
func runMILP(ctx context.Context, q *qopt.Query, cfg Figure2Config, prec core.Precision) (*Trace, error) {
	tr := &Trace{}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	res, err := core.Optimize(ctx, q, core.Options{
		Precision: prec,
		Metric:    cfg.Metric,
		Op:        cfg.Op,
		Threads:   cfg.Threads,
		OnEvent: func(ev obs.Event) {
			if ev.Kind != obs.KindIncumbent && ev.Kind != obs.KindBound {
				return
			}
			inc := math.Inf(1)
			if ev.HasIncumbent {
				inc = ev.Incumbent
			}
			tr.Add(ev.Elapsed, inc, ev.Bound)
		},
	})
	if err != nil {
		return nil, err
	}
	// Record the final state (bound improvements after the last
	// callback, or a solve that finished before the first sample).
	if res.Plan != nil {
		tr.Add(res.Elapsed, res.Solution.Obj, res.Bound)
	}
	return tr, nil
}

// sampleTrace evaluates the Cost/LB ratio on the sample grid.
func sampleTrace(tr *Trace, times []time.Duration) []float64 {
	out := make([]float64, len(times))
	for i, tm := range times {
		out[i] = tr.RatioAt(tm)
	}
	return out
}
