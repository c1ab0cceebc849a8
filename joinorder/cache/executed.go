package cache

import (
	"context"

	"milpjoin/joinorder"
)

// OptimizeExecuted optimizes through the cache and then runs the chosen
// plan, mirroring joinorder.OptimizeExecuted. It additionally closes the
// cardinality feedback loop into the cache: when feedback execution
// reports a CorrectedQuery — measured join sizes contradicted the
// statistics the cached plan was built from — the stale entry is
// invalidated immediately and a background solve of the corrected query
// refreshes the cache, so the next request for this fingerprint gets a
// plan consistent with observed reality instead of the stale one.
func (o *Optimizer) OptimizeExecuted(ctx context.Context, q *joinorder.Query, opts joinorder.Options, eo joinorder.ExecOptions) (*joinorder.Execution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := o.Optimize(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	ex, err := joinorder.ExecuteResult(ctx, res, q, opts, eo)
	if err != nil {
		return nil, err
	}
	if ex.CorrectedQuery != nil && ex.MaxQError >= qerrorThreshold(eo) {
		o.refreshCorrected(ctx, q, ex.CorrectedQuery, opts)
	}
	return ex, nil
}

// qerrorThreshold mirrors the adaptive executor's default: feedback runs
// always report a CorrectedQuery, but only a misestimate past the
// re-optimization threshold justifies dropping a cached plan — tiny
// corrections would otherwise evict good entries on every execution.
func qerrorThreshold(eo joinorder.ExecOptions) float64 {
	if eo.QErrorThreshold > 0 {
		return eo.QErrorThreshold
	}
	return 2
}

// refreshCorrected is the cache half of the feedback loop: drop the entry
// built from stale statistics, then re-solve with the corrected
// selectivities in the background and file the answer under the original
// query's fingerprint — that is the key future requests (which carry the
// same stale statistics) will look up.
func (o *Optimizer) refreshCorrected(ctx context.Context, q, corrected *joinorder.Query, opts joinorder.Options) {
	o.Invalidate(q, opts)
	o.ctr.feedbackRefreshes.Add(1)

	// The stale plan is no warm start for the corrected query.
	fresh := opts
	fresh.InitialPlan = nil
	o.refine(ctx, fresh, func(bctx context.Context, bgOpts joinorder.Options) {
		// The underlying optimizer solves the corrected query outside the
		// cache: it stores no entry or donor of its own.
		res, err := o.cfg.Optimize(bctx, corrected, bgOpts)
		if err != nil || res.Plan == nil || res.Status != joinorder.StatusOptimal {
			return
		}
		// File the corrected plan under the ORIGINAL query's exact key:
		// both queries share a structure, so the original's canonical
		// permutation translates the plan.
		ce, cerr := o.canonicalize(q, Exact)
		if cerr != nil {
			return
		}
		o.storeExact(ExactKey(ce, opts), storeForm(res, ce), o.cfg.now())
	})
}
