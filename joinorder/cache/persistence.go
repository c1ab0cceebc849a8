package cache

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"milpjoin/joinorder"
	"milpjoin/joinorder/cache/persist"
)

// donorWire is the serialized form of a warm-start donor (persistent log
// and cluster replication). Operators are small ints; the order is in
// shape-canonical label space, exactly as the in-memory store holds it.
type donorWire struct {
	Order []int                `json:"order"`
	Ops   []joinorder.Operator `json:"ops,omitempty"`
}

// entryOverhead approximates the fixed in-memory cost of one cache entry
// beyond its serialized payload: list element, map bucket share, Result
// struct, plan headers.
const entryOverhead = 256

func entrySize(key string, val []byte) int64 {
	return int64(len(key) + len(val) + entryOverhead)
}

// storeExact inserts a canonical-space result under its full cache key,
// mirrors it to the persistent log, and announces it to the OnStore hook
// (cluster replication). Returns the marshaled value for reuse.
func (o *Optimizer) storeExact(key string, cres *canonicalResult, now time.Time) {
	val, err := json.Marshal(cres.res)
	if err != nil {
		// A Result always marshals; treat failure as a persist error and
		// keep the entry memory-only with a conservative size estimate.
		o.ctr.persistErrors.Add(1)
		o.exact.put(key, cres, now, entrySize(key, nil))
		return
	}
	o.exact.put(key, cres, now, entrySize(key, val))
	o.persistPut(persist.KindExact, key, val)
	o.announce(persist.KindExact, key, val)
}

// storeDonor inserts a shape-level warm-start donor and mirrors it like
// storeExact.
func (o *Optimizer) storeDonor(key string, d *donor, now time.Time) {
	o.donors.put(key, d, now, 0)
	val, err := json.Marshal(donorWire{Order: d.order, Ops: d.ops})
	if err != nil {
		o.ctr.persistErrors.Add(1)
		return
	}
	o.persistPut(persist.KindDonor, key, val)
	o.announce(persist.KindDonor, key, val)
}

// persistPut appends one record to the persistent log, best effort: a
// failed write is counted, never surfaced — the in-memory cache keeps
// serving either way.
func (o *Optimizer) persistPut(kind, key string, val []byte) {
	if o.cfg.Persist == nil {
		return
	}
	if err := o.cfg.Persist.Put(kind, key, val); err != nil {
		o.ctr.persistErrors.Add(1)
	}
}

func (o *Optimizer) persistDelete(kind, key string) {
	if o.cfg.Persist == nil {
		return
	}
	if err := o.cfg.Persist.Delete(kind, key); err != nil {
		o.ctr.persistErrors.Add(1)
	}
}

// announce feeds freshly stored entries to the OnStore hook. Replayed and
// imported entries never announce — replication must not amplify.
func (o *Optimizer) announce(kind, key string, val []byte) {
	if o.cfg.OnStore != nil {
		o.cfg.OnStore(kind, key, val)
	}
}

// replay loads the persistent log into the in-memory stores. Entries
// beyond the configured bounds (MaxEntries, MaxBytes) are evicted in log
// order as they overflow; those evictions are counted separately so an
// oversized log is visible in Stats.
func (o *Optimizer) replay() error {
	evictedBefore := o.ctr.evicted.Load()
	err := o.cfg.Persist.Each(func(rec persist.Record) error {
		if err := o.insertRecord(rec.Kind, rec.Key, rec.Val); err != nil {
			// One bad record (e.g. from an older format) must not take
			// down startup; skip it.
			o.ctr.persistErrors.Add(1)
			return nil
		}
		o.ctr.replayed.Add(1)
		return nil
	})
	o.ctr.replayEvicted.Add(o.ctr.evicted.Load() - evictedBefore)
	return err
}

// insertRecord decodes one serialized entry into the matching store. It
// does not touch the persistent log or the OnStore hook.
func (o *Optimizer) insertRecord(kind, key string, val []byte) error {
	now := o.cfg.now()
	switch kind {
	case persist.KindExact:
		res := &joinorder.Result{}
		if err := json.Unmarshal(val, res); err != nil {
			return fmt.Errorf("cache: bad exact record %q: %w", key, err)
		}
		if res.Plan == nil || len(res.Plan.Order) == 0 {
			return fmt.Errorf("cache: exact record %q carries no plan", key)
		}
		o.exact.put(key, &canonicalResult{res: res}, now, entrySize(key, val))
		return nil
	case persist.KindDonor:
		var dw donorWire
		if err := json.Unmarshal(val, &dw); err != nil {
			return fmt.Errorf("cache: bad donor record %q: %w", key, err)
		}
		if len(dw.Order) == 0 {
			return fmt.Errorf("cache: donor record %q carries no order", key)
		}
		o.donors.put(key, &donor{order: dw.Order, ops: dw.Ops}, now, 0)
		return nil
	default:
		return fmt.Errorf("cache: unknown record kind %q", kind)
	}
}

// ImportRecord accepts one serialized cache entry from a cluster peer
// (best-effort replication of hot entries and warm-start donors). The
// entry is validated, inserted, and mirrored to the local persistent log
// so it survives a restart — but it is NOT re-announced through OnStore,
// so replication cannot amplify. kind is persist.KindExact or
// persist.KindDonor; key is the full cache key; val the serialized entry.
func (o *Optimizer) ImportRecord(kind, key string, val []byte) error {
	if key == "" {
		return fmt.Errorf("cache: import with empty key")
	}
	if err := o.insertRecord(kind, key, val); err != nil {
		return err
	}
	o.ctr.imported.Add(1)
	o.persistPut(kind, key, val)
	return nil
}

// Invalidate removes the cached exact entry for the query under the given
// options and, when the options read a MIP start, its warm-start donor, both
// from memory and (as tombstones) from the persistent log. It reports
// whether an exact entry was resident. Use it when the statistics behind a
// cached plan are known to be stale; OptimizeExecuted with feedback calls it
// automatically.
func (o *Optimizer) Invalidate(q *joinorder.Query, opts joinorder.Options) bool {
	ce, err := o.canonicalize(q, Exact)
	if err != nil {
		return false
	}
	ekey := ExactKey(ce, opts)
	removed := o.exact.remove(ekey)
	o.persistDelete(persist.KindExact, ekey)
	if joinorder.ReadsInitialPlan(opts) {
		if cs, err := o.canonicalize(q, Shape); err == nil {
			skey := donorKey(cs, opts)
			o.donors.remove(skey)
			o.persistDelete(persist.KindDonor, skey)
		}
	}
	if removed {
		o.ctr.invalidated.Add(1)
	}
	return removed
}

// cloneDonor deep-copies a donor for safe insertion from borrowed slices.
func cloneDonor(order []int, ops []joinorder.Operator) *donor {
	return &donor{order: slices.Clone(order), ops: slices.Clone(ops)}
}
