package cache

import "sync/atomic"

// Stats is a point-in-time snapshot of cache effectiveness, suitable for
// dashboards and the joinopt -stats output.
type Stats struct {
	// Hits counts requests served entirely from the exact cache.
	Hits int64 `json:"hits"`
	// Misses counts requests that fell through to a solve.
	Misses int64 `json:"misses"`
	// Coalesced counts requests that joined an identical in-flight
	// solve instead of starting their own (a subset of neither Hits nor
	// Misses: the leader of the flight records the miss).
	Coalesced int64 `json:"coalesced"`
	// WarmStarts counts misses where a structurally similar cached plan
	// was injected as the solver's initial incumbent.
	WarmStarts int64 `json:"warm_starts"`
	// WarmStartAccepted counts warm starts the solver actually used
	// (the injected plan survived the feasibility check).
	WarmStartAccepted int64 `json:"warm_start_accepted"`
	// Degraded counts requests under a tight deadline that were served a
	// heuristic plan immediately while the full solve ran on.
	Degraded int64 `json:"degraded"`
	// Refines counts background solves completed after degraded serving.
	Refines int64 `json:"refines"`
	// Uncacheable counts requests whose queries the fingerprint rejects
	// (passed through to the optimizer untouched).
	Uncacheable int64 `json:"uncacheable"`
	// Canonicalizations counts fingerprint computations of either mode made
	// through the optimizer: one per lookup whose caller did not bring the
	// canonical form, one more (Shape) per miss that consults the donor
	// index.
	Canonicalizations int64 `json:"canonicalizations"`
	// Evicted counts entries removed by the LRU bounds (entry count or
	// MaxBytes), including evictions during persistent-log replay.
	Evicted int64 `json:"evicted"`
	// Expired counts entries removed because their TTL lapsed.
	Expired int64 `json:"expired"`
	// Invalidated counts entries removed by explicit invalidation —
	// Invalidate calls and the corrected-cardinality feedback loop.
	Invalidated int64 `json:"invalidated"`
	// Replayed counts entries loaded from the persistent log at startup.
	Replayed int64 `json:"replayed"`
	// ReplayEvicted counts replayed entries the LRU bounds evicted again
	// during startup — the log held more than the configured cache.
	ReplayEvicted int64 `json:"replay_evicted"`
	// Imported counts entries accepted from cluster peers (replication).
	Imported int64 `json:"imported"`
	// FeedbackRefreshes counts corrected-query refreshes: an executed
	// plan's measured cardinalities invalidated a stale entry and a
	// background solve of the corrected query replaced it.
	FeedbackRefreshes int64 `json:"feedback_refreshes"`
	// PersistErrors counts failed persistent-log writes (the in-memory
	// cache keeps serving; the entry is simply not durable).
	PersistErrors int64 `json:"persist_errors"`
	// Entries is the current number of exact entries resident.
	Entries int `json:"entries"`
	// Donors is the current number of shape-level warm-start donors.
	Donors int `json:"donors"`
	// Bytes is the approximate resident size of the exact cache.
	Bytes int64 `json:"bytes"`
}

// HitRate is Hits over all cacheable lookups (0 when none yet).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// counters is the live, atomically updated form behind Stats.
type counters struct {
	hits              atomic.Int64
	misses            atomic.Int64
	coalesced         atomic.Int64
	warmStarts        atomic.Int64
	warmStartAccepted atomic.Int64
	degraded          atomic.Int64
	refines           atomic.Int64
	uncacheable       atomic.Int64
	canonicalizations atomic.Int64
	evicted           atomic.Int64
	expired           atomic.Int64
	invalidated       atomic.Int64
	replayed          atomic.Int64
	replayEvicted     atomic.Int64
	imported          atomic.Int64
	feedbackRefreshes atomic.Int64
	persistErrors     atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Coalesced:         c.coalesced.Load(),
		WarmStarts:        c.warmStarts.Load(),
		WarmStartAccepted: c.warmStartAccepted.Load(),
		Degraded:          c.degraded.Load(),
		Refines:           c.refines.Load(),
		Uncacheable:       c.uncacheable.Load(),
		Canonicalizations: c.canonicalizations.Load(),
		Evicted:           c.evicted.Load(),
		Expired:           c.expired.Load(),
		Invalidated:       c.invalidated.Load(),
		Replayed:          c.replayed.Load(),
		ReplayEvicted:     c.replayEvicted.Load(),
		Imported:          c.imported.Load(),
		FeedbackRefreshes: c.feedbackRefreshes.Load(),
		PersistErrors:     c.persistErrors.Load(),
	}
}
