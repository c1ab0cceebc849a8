// Serving with the plan cache: the same optimizer behind a
// cache.Optimizer front-end, exercised the way a query serving layer
// would — repeated queries, isomorphic relabelings of the same query,
// and statistics drift.
//
// Three effects are shown:
//
//  1. an identical repeat and a relabeled variant of an already-solved
//     query are served from the cache in microseconds, because the
//     cache key is a canonical fingerprint that is invariant under
//     table renumbering;
//
//  2. after the table statistics drift, the query misses the exact
//     cache but the cached plan for the same shape warm-starts the new
//     solve (the solver begins with an incumbent instead of from
//     scratch);
//
//  3. under a tight deadline the cache degrades gracefully: it answers
//     immediately with a greedy plan and refines the MILP solution in
//     the background, so the next request hits the refined entry.
//
//     go run ./examples/caching
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
)

func main() {
	co, err := cache.New(cache.Config{
		// Answer from the fallback strategy when under 250ms of budget
		// remains, refining the real solution in the background.
		DegradeUnder: 250 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := joinorder.Options{
		Strategy:  "milp",
		Precision: joinorder.PrecisionMedium,
		Budget:    joinorder.Budget{TimeLimit: 30 * time.Second},
	}
	query := workload.Generate(workload.Chain, 10, 1, workload.Config{})

	// 1. Cold solve, identical repeat, relabeled repeat.
	solve := func(label string, q *joinorder.Query, o joinorder.Options) *joinorder.Result {
		start := time.Now()
		res, err := co.Optimize(context.Background(), q, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %-9v cost=%-12.6g in %v\n",
			label, res.Status, res.Cost, time.Since(start).Truncate(time.Microsecond))
		return res
	}
	solve("cold solve", query, opts)
	solve("identical repeat", query, opts)

	relabeled := relabel(query)
	solve("relabeled repeat", relabeled, opts)

	// 2. Statistics drift: every cardinality grows 20%. The exact entry
	// no longer matches, but the shape still does, so the cached plan
	// seeds the new solve as its initial incumbent.
	drifted := &joinorder.Query{
		Tables:     append([]joinorder.Table(nil), query.Tables...),
		Predicates: query.Predicates,
	}
	for i := range drifted.Tables {
		drifted.Tables[i].Card *= 1.2
	}
	res := solve("after 20% stats drift", drifted, opts)
	st := co.Stats()
	fmt.Printf("  warm-started=%v (mip start: %q)\n", st.WarmStarts > 0, res.MIPStart)

	// 3. Tight deadline: served degraded, refined in the background.
	tight := opts
	tight.Budget.TimeLimit = 100 * time.Millisecond
	fresh := workload.Generate(workload.Star, 12, 9, workload.Config{})
	res = solve("fresh query, 100ms budget", fresh, tight)
	fmt.Printf("  served strategy: %s (degraded=%d)\n", res.Strategy, co.Stats().Degraded)
	co.Wait() // let the background refine land
	res = solve("same query, after refine", fresh, opts)
	fmt.Printf("  served strategy: %s\n", res.Strategy)

	st = co.Stats()
	fmt.Printf("\ncache: hits=%d misses=%d warm-starts=%d degraded=%d refines=%d hit-rate=%.2f\n",
		st.Hits, st.Misses, st.WarmStarts, st.Degraded, st.Refines, st.HitRate())
}

// relabel reverses the table numbering — an isomorphic query that any
// naive cache key would treat as new.
func relabel(q *joinorder.Query) *joinorder.Query {
	n := len(q.Tables)
	out := &joinorder.Query{Tables: make([]joinorder.Table, n)}
	for i, t := range q.Tables {
		out.Tables[n-1-i] = t
	}
	for _, p := range q.Predicates {
		np := p
		np.Tables = make([]int, len(p.Tables))
		for k, t := range p.Tables {
			np.Tables[k] = n - 1 - t
		}
		out.Predicates = append(out.Predicates, np)
	}
	return out
}
