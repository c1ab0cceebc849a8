// Package cost implements the operator cost formulas of Section 4.3: the
// C_out metric of Cluet & Moerkotte, hash join, sort-merge join, and block
// nested loop join. The same formulas are used for exact plan costing
// (internal/plan) and for the linear approximations in the MILP encoder
// (internal/core).
package cost

import (
	"fmt"
	"math"
)

// Operator is a join operator implementation.
type Operator int

const (
	// HashJoin costs 3·(pg_outer + pg_inner) (GRACE hash join).
	HashJoin Operator = iota
	// SortMergeJoin costs 2·pg·log(pg) per input plus the merge pass.
	SortMergeJoin
	// BlockNestedLoopJoin costs ⌈pg_outer/buffer⌉·pg_inner plus reading
	// the outer.
	BlockNestedLoopJoin
)

// String names the operator.
func (op Operator) String() string {
	switch op {
	case HashJoin:
		return "hash"
	case SortMergeJoin:
		return "sort-merge"
	case BlockNestedLoopJoin:
		return "block-nested-loop"
	default:
		return fmt.Sprintf("Operator(%d)", int(op))
	}
}

// Operators lists the standard operator implementations.
func Operators() []Operator {
	return []Operator{HashJoin, SortMergeJoin, BlockNestedLoopJoin}
}

// Metric selects how plans are priced.
type Metric int

const (
	// Cout sums the cardinalities of all intermediate results (the
	// metric of Cluet & Moerkotte; minimizing it also minimizes many
	// standard operator cost functions).
	Cout Metric = iota
	// OperatorCost sums per-join operator costs (hash join by default,
	// or the per-join operator recorded in the plan).
	OperatorCost
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case Cout:
		return "C_out"
	case OperatorCost:
		return "operator-cost"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Params hold the physical constants of the cost model.
type Params struct {
	// TupleBytes is the byte width of a tuple under the fixed-size
	// simplification of Section 4.3 (default 100).
	TupleBytes float64
	// PageBytes is the disk page size (default 8192).
	PageBytes float64
	// BufferPages is the buffer dedicated to the outer operand of a
	// block nested loop join (default 64).
	BufferPages float64
}

// WithDefaults fills zero fields with defaults.
func (p Params) WithDefaults() Params {
	if p.TupleBytes <= 0 {
		p.TupleBytes = 100
	}
	if p.PageBytes <= 0 {
		p.PageBytes = 8192
	}
	if p.BufferPages <= 0 {
		p.BufferPages = 64
	}
	return p
}

// Spec bundles the metric, operator, and physical parameters used to price
// a plan.
type Spec struct {
	Metric Metric
	// Op is the operator used for every join when Metric is
	// OperatorCost and the plan does not record per-join operators.
	Op     Operator
	Params Params
}

// DefaultSpec prices plans with hash joins, the configuration of the
// paper's experiments.
func DefaultSpec() Spec {
	return Spec{Metric: OperatorCost, Op: HashJoin, Params: Params{}.WithDefaults()}
}

// CoutSpec prices plans by the C_out metric.
func CoutSpec() Spec {
	return Spec{Metric: Cout, Params: Params{}.WithDefaults()}
}

// Pages converts a cardinality to a page count (at least 1 page for any
// nonempty input).
func (p Params) Pages(card float64) float64 {
	if card <= 0 {
		return 0
	}
	return math.Ceil(card * p.TupleBytes / p.PageBytes)
}

// JoinCost prices one join given operand page counts.
func JoinCost(op Operator, pgOuter, pgInner float64, p Params) float64 {
	switch op {
	case HashJoin:
		return 3 * (pgOuter + pgInner)
	case SortMergeJoin:
		return 2*pgOuter*ceilLog2(pgOuter) + 2*pgInner*ceilLog2(pgInner) + pgOuter + pgInner
	case BlockNestedLoopJoin:
		blocks := math.Ceil(pgOuter / p.BufferPages)
		if blocks < 1 {
			blocks = 1
		}
		return pgOuter + blocks*pgInner
	default:
		panic(fmt.Sprintf("cost: unknown operator %v", op))
	}
}

// SortMergeInput prices one sort-merge input of pg pages: two passes per
// level of the ⌈log2 pg⌉-level sort plus the merge read — the term the
// MILP encoder builds its sort-merge costs from. JoinCost adds the same
// terms per input, in a different order.
func SortMergeInput(pg float64) float64 {
	return 2*pg*ceilLog2(pg) + pg
}

// ceilLog2 returns ⌈log2(x)⌉ for x ≥ 1 and 0 otherwise, matching the
// ceiling-log terms of the sort cost formula.
func ceilLog2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(x))
}
