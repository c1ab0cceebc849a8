// Package experiments regenerates the paper's evaluation: Figure 1 (MILP
// model size versus query size for the three precision configurations) and
// Figure 2 (anytime plan quality — the Cost / lower-bound ratio over
// optimization time — for dynamic programming and the three MILP
// configurations across join graph shapes and query sizes).
package experiments

import (
	"fmt"
	"sort"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/workload"
)

// Figure1Config parameterises the model-size census.
type Figure1Config struct {
	// Sizes lists the table counts (paper: 10, 20, …, 60).
	Sizes []int
	// QueriesPerSize is the number of random queries per size (paper: 20).
	QueriesPerSize int
	// Shape is the join graph structure (paper reports star; chain and
	// cycle differ only marginally).
	Shape workload.GraphShape
	// Seed makes the census reproducible.
	Seed int64
	// Metric/Op select the encoded objective (paper: hash joins).
	Metric cost.Metric
	Op     cost.Operator
}

// WithDefaults fills in the paper's configuration.
func (c Figure1Config) WithDefaults() Figure1Config {
	if c.Sizes == nil {
		c.Sizes = []int{10, 20, 30, 40, 50, 60}
	}
	if c.QueriesPerSize <= 0 {
		c.QueriesPerSize = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Metric == cost.OperatorCost && c.Op == 0 {
		c.Op = cost.HashJoin
	}
	return c
}

// Figure1Row is one point of Figure 1: the median number of variables and
// constraints of the MILP encoding for one query size and precision.
type Figure1Row struct {
	Tables         int
	Precision      core.Precision
	MedianVars     int
	MedianConstrs  int
	MedianNonzeros int
	Thresholds     int // threshold count per intermediate result
}

// Figure1 regenerates the data behind Figure 1.
func Figure1(cfg Figure1Config) ([]Figure1Row, error) {
	cfg = cfg.WithDefaults()
	var rows []Figure1Row
	for _, n := range cfg.Sizes {
		for _, prec := range core.Precisions() {
			var vars, constrs, nnz []int
			thresholds := 0
			for qi := 0; qi < cfg.QueriesPerSize; qi++ {
				q := workload.Generate(cfg.Shape, n, cfg.Seed+int64(qi), workload.Config{})
				enc, err := core.Encode(q, core.Options{
					Precision: prec,
					Metric:    cfg.Metric,
					Op:        cfg.Op,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: encode n=%d: %w", n, err)
				}
				s := enc.Stats()
				vars = append(vars, s.Vars)
				constrs = append(constrs, s.Constrs)
				nnz = append(nnz, s.Nonzeros)
				thresholds = len(enc.Thresholds)
			}
			rows = append(rows, Figure1Row{
				Tables:         n,
				Precision:      prec,
				MedianVars:     medianInt(vars),
				MedianConstrs:  medianInt(constrs),
				MedianNonzeros: medianInt(nnz),
				Thresholds:     thresholds,
			})
		}
	}
	return rows, nil
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[len(s)/2]
}
