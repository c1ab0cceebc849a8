package joinorder

import (
	"context"
	"fmt"

	"milpjoin/internal/exec"
)

// ExecOptions configure the execution half of OptimizeExecuted.
type ExecOptions struct {
	// DataQuery is the ground truth the data is synthesized from. It must
	// be structurally identical to the optimized query (same tables, same
	// predicate shapes); only cardinalities and selectivities may differ.
	// Nil means the optimized query itself — the optimizer then has
	// perfect statistics. Pass a different DataQuery to model estimation
	// error: optimize against the estimate, execute against the truth.
	DataQuery *Query
	// DataSeed drives the deterministic data synthesis.
	DataSeed int64
	// Feedback enables mid-query adaptive re-optimization: execution
	// pauses at materialization checkpoints between joins, and when a
	// join's measured cardinality misses its estimate by more than
	// QErrorThreshold, the unexecuted remainder of the query is
	// re-optimized with measured cardinalities and corrected
	// selectivities. Without it the plan streams end-to-end unchanged.
	Feedback bool
	// QErrorThreshold is the per-join q-error that triggers
	// re-optimization (default 2; Feedback only). At most two
	// re-optimizations run per execution.
	QErrorThreshold float64
}

// JoinObservation is one executed join: the optimizer's estimate at the
// time the join ran next to the measured result size.
type JoinObservation struct {
	// Tables is the sorted set of base tables joined under this node.
	Tables []int `json:"tables"`
	// Estimated and Measured are the predicted and actual result
	// cardinalities; QError is max of their ratio either way (≥ 1).
	Estimated float64 `json:"estimated"`
	Measured  float64 `json:"measured"`
	QError    float64 `json:"qerror"`
}

// Execution is the outcome of OptimizeExecuted: the optimization result
// plus what actually happened when the plan ran.
type Execution struct {
	// Result is the optimization outcome whose plan was executed (the
	// initial plan; under feedback, later joins may follow re-optimized
	// plans).
	Result *Result `json:"-"`
	// Joins lists every executed join in execution order (root last).
	Joins []JoinObservation `json:"joins"`
	// EstimatedCout and ExecutedCout are the C_out metric — the summed
	// sizes of all non-root join results — predicted vs. measured.
	EstimatedCout float64 `json:"estimated_cout"`
	ExecutedCout  float64 `json:"executed_cout"`
	// MaxQError is the worst per-join q-error.
	MaxQError float64 `json:"max_qerror"`
	// ResultRows is the final result cardinality and Fingerprint its
	// order-independent hash (identical across join orders of one query).
	ResultRows  int    `json:"result_rows"`
	Fingerprint uint64 `json:"fingerprint"`
	// Reoptimizations counts mid-query plan replacements (Feedback only).
	Reoptimizations int `json:"reoptimizations"`
	// CorrectedQuery is the optimizer's query with every selectivity
	// correction learned from measured cardinalities applied (Feedback
	// only; nil otherwise).
	CorrectedQuery *Query `json:"corrected_query,omitempty"`
}

// OptimizeExecuted optimizes the query and then actually runs the chosen
// plan against data synthesized to match DataQuery (or the query itself),
// using the streaming executor. It reports estimated next to executed
// cost and, with ExecOptions.Feedback, closes the cardinality feedback
// loop: measured join sizes correct the selectivities mid-query and the
// unexecuted remainder is re-optimized with the same strategy.
func OptimizeExecuted(ctx context.Context, q *Query, opts Options, eo ExecOptions) (*Execution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := Optimize(ctx, q, opts)
	if err != nil {
		return nil, err
	}

	return ExecuteResult(ctx, res, q, opts, eo)
}

// ExecuteResult runs an already-optimized result against data synthesized
// to match ExecOptions.DataQuery (or q itself): the execution half of
// OptimizeExecuted, split out so serving layers that obtained the result
// elsewhere — e.g. the plan cache — can close the same feedback loop.
// res must carry a Tree (every successful Optimize and cache serve does).
func ExecuteResult(ctx context.Context, res *Result, q *Query, opts Options, eo ExecOptions) (*Execution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if res == nil || res.Tree == nil {
		return nil, fmt.Errorf("%w: result carries no executable tree", ErrNoPlan)
	}
	dataQ := eo.DataQuery
	if dataQ == nil {
		dataQ = q
	} else if err := dataQ.Validate(); err != nil {
		return nil, fmt.Errorf("%w: data query: %v", ErrInvalidQuery, err)
	}
	db, err := exec.Synthesize(dataQ, eo.DataSeed)
	if err != nil {
		return nil, err
	}
	return executePlan(ctx, db, res, q, opts, eo)
}

// executePlan runs an already-optimized plan against an already-built
// database; OptimizeExecuted is the one-call form.
func executePlan(ctx context.Context, db *exec.Database, res *Result, q *Query, opts Options, eo ExecOptions) (*Execution, error) {
	out := &Execution{Result: res}
	var trace *exec.Trace
	var rel *exec.Relation

	if eo.Feedback {
		reoptOpts := opts
		reoptOpts.InitialPlan = nil // the remainder's table space differs
		ares, err := db.ExecuteAdaptive(ctx, res.Tree, exec.AdaptiveOptions{
			EstQuery:        q,
			QErrorThreshold: eo.QErrorThreshold,
			Reoptimize: func(ctx context.Context, remainder *Query) (*Tree, error) {
				r, err := Optimize(ctx, remainder, reoptOpts)
				if err != nil {
					return nil, err
				}
				return r.Tree, nil
			},
		})
		if err != nil {
			return nil, err
		}
		trace, rel = ares.Trace, ares.Result
		out.Reoptimizations = ares.Reopts
		out.CorrectedQuery = ares.CorrectedQuery
	} else {
		run, err := db.Stream(res.Tree, exec.StreamOptions{EstQuery: q})
		if err != nil {
			return nil, err
		}
		rel, err = run.Collect()
		if err != nil {
			return nil, err
		}
		trace = run.Trace
	}

	for _, jt := range trace.Joins {
		out.Joins = append(out.Joins, JoinObservation{
			Tables:    jt.Tables,
			Estimated: jt.Estimated,
			Measured:  jt.Measured,
			QError:    jt.QError(),
		})
	}
	out.EstimatedCout = trace.EstimatedCout()
	out.ExecutedCout = trace.MeasuredCout()
	out.MaxQError = trace.MaxQError()
	out.ResultRows = trace.ResultRows
	fp, err := rel.Fingerprint(db.AllColumns())
	if err != nil {
		return nil, err
	}
	out.Fingerprint = fp
	return out, nil
}
