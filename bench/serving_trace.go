package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"milpjoin/internal/dp"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
	"milpjoin/joinorder/cluster"
)

// servedOptions are the options the server derives from the workloads'
// request bodies; the cache probe solves under the same ones.
var servedOptions = joinorder.Options{
	Strategy:  "dp-leftdeep",
	Metric:    joinorder.OperatorCost,
	Op:        joinorder.HashJoin,
	Precision: joinorder.PrecisionMedium,
	Budget:    joinorder.Budget{TimeLimit: 10 * time.Second},
}

// storedRecord is one entry the cache announced through OnStore.
type storedRecord struct {
	kind, key string
	val       []byte
}

// probeCache drives a cache of the workload's configuration directly with
// the hot queries: a miss on the first labeling of each (with the wrapped
// solve as a child span, so the miss span's self time is what the cache adds:
// canonicalizations, store, donor index), then a hit on every other labeling.
// It returns the records the cache stored.
func (sys *system) probeCache(ctx context.Context, tr *tracer) ([]storedRecord, error) {
	var records []storedRecord
	op, parent := 0, -1
	co, err := cache.New(cache.Config{
		MaxEntries: sys.spec.maxEntries,
		Optimize: func(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
			sp := tr.begin("joinorder.Optimize", op, parent)
			defer tr.end(sp)
			return joinorder.Optimize(ctx, q, opts)
		},
		OnStore: func(kind, key string, val []byte) {
			records = append(records, storedRecord{kind, key, append([]byte(nil), val...)})
		},
	})
	if err != nil {
		return nil, err
	}
	defer co.Wait()
	for i, variants := range sys.hot {
		op = i
		for v, sv := range variants {
			sp := tr.begin("cache.Canonicalize", op, -1)
			_, err := cache.Canonicalize(sv.q, cache.Exact)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("hot query %d is not cacheable: %w", i, err)
			}
			name := "cache.Optimize(hit)"
			if v == 0 {
				name = "cache.Optimize(miss)"
			}
			parent = tr.begin(name, op, -1)
			res, err := co.Optimize(ctx, sv.q, servedOptions)
			tr.end(parent)
			if err == nil {
				err = checkResult(sv.q, res, sv.ref, true)
			}
			if err != nil {
				return nil, fmt.Errorf("cache probe, hot query %d labeling %d: %w", i, v, err)
			}
		}
	}
	if st := co.Stats(); int(st.Misses) != len(sys.hot) {
		return nil, fmt.Errorf("cache probe missed %d times on %d distinct queries: relabelings do not share an entry", st.Misses, len(sys.hot))
	}
	return records, nil
}

// probeHandler calls node 0's handler on a recorder with every hot request
// (all hits: the node is warm), without a socket in between. On a ring the
// requests are marked as forwarded so that the node answers itself.
func (sys *system) probeHandler(tr *tracer) (reqBytes, respBytes float64, err error) {
	n := 0
	for i, variants := range sys.hot {
		for _, sv := range variants {
			req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(sv.body))
			if len(sys.nodes) > 1 {
				req.Header.Set(cluster.ForwardHeader, "probe")
			}
			rec := httptest.NewRecorder()
			sp := tr.begin("server.ServeHTTP", i, -1)
			sys.nodes[0].srv.ServeHTTP(rec, req)
			tr.end(sp)
			if _, err := checkReply(sv.q, rec.Code, rec.Body.Bytes(), sv.ref); err != nil {
				return 0, 0, fmt.Errorf("handler probe, hot query %d: %w", i, err)
			}
			reqBytes += float64(len(sv.body))
			respBytes += float64(rec.Body.Len())
			n++
		}
	}
	return reqBytes / float64(n), respBytes / float64(n), nil
}

// probeLoopback sends every hot request from one client over loopback, one
// at a time, so that nothing queues: the span is the serving path's latency
// without contention, named by whether the asked node answered itself.
func (sys *system) probeLoopback(ctx context.Context, tr *tracer) error {
	k := 0
	for i, variants := range sys.hot {
		for _, sv := range variants {
			nodeIdx := k % len(sys.nodes)
			k++
			t0 := time.Now()
			status, body, by, err := sys.send(ctx, 0, nodeIdx, sv)
			end := time.Now()
			if err == nil {
				_, err = checkReply(sv.q, status, body, sv.ref)
			}
			if err != nil {
				return fmt.Errorf("loopback probe, hot query %d: %w", i, err)
			}
			name := "loopback(local)"
			if by != "" && by != sys.nodes[nodeIdx].id {
				name = "loopback(remote)"
			}
			tr.add(name, i, t0, end)
		}
	}
	return nil
}

// trace measures the per-layer metrics of a serving workload: direct probes
// of dp, cache, handler and loopback on the hot set, one untraced and one
// traced block, then the counters the nodes kept.
func (s servingSpec) trace(ctx context.Context, env *runEnv) (*outcome, error) {
	tr := newTracer()
	sys, err := s.build(ctx, env)
	if sys != nil {
		defer sys.close()
	}
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}}
	v := out.values

	for i, variants := range sys.hot {
		q := variants[0].q
		sp := tr.begin("dp.OptimizeLeftDeep", i, -1)
		_, _, err := dp.OptimizeLeftDeep(ctx, q, hashSpec, dp.Options{})
		tr.end(sp)
		sp = tr.begin("dp.GreedyLeftDeep", i, -1)
		_, _, gerr := dp.GreedyLeftDeep(q, hashSpec)
		tr.end(sp)
		if err != nil || gerr != nil {
			return nil, fmt.Errorf("dp probe on hot query %d: %v %v", i, err, gerr)
		}
	}
	records, err := sys.probeCache(ctx, tr)
	if err != nil {
		return nil, err
	}
	reqBytes, respBytes, err := sys.probeHandler(tr)
	if err != nil {
		return nil, err
	}
	if err := sys.probeLoopback(ctx, tr); err != nil {
		return nil, err
	}
	probes := 3 * s.hot * s.relabelings
	out.attempted += probes

	// A warm-up block, then untraced and traced blocks in turn, so that both
	// kinds see the same drift of the machine's speed.
	next := make([]int, servingClients)
	echo := newEchoCalibrator()
	defer echo.close()
	sm := &servingSamples{}
	var untraced, traced blockResult
	for b := 0; b < 5; b++ {
		var br blockResult
		switch {
		case b == 0:
			br = sys.block(ctx, env.seed, b, next, nil)
		case b%2 == 1:
			sm.lastReading = 0 // a traced block ran since; read afresh
			if br, err = sys.calibratedBlock(ctx, env.seed, b, next, nil, echo, sm); err != nil {
				return nil, err
			}
			untraced.seconds += br.seconds
			untraced.latencies = append(untraced.latencies, br.latencies...)
		default:
			br = sys.block(ctx, env.seed, b, next, tr)
			traced.seconds += br.seconds
			traced.latencies = append(traced.latencies, br.latencies...)
		}
		out.attempted += len(br.latencies) + br.failed
		out.failed += br.failed
	}
	v["calib.factor_p50"] = median(sm.factors)
	v["calib.factor_spread"] = ratio(quantile(sm.factors, 0.9)-quantile(sm.factors, 0.1), median(sm.factors))
	v["wall.p50_ms_raw"] = median(sm.rawP50)

	canon := tr.medianSec("cache.Canonicalize")
	hit := tr.medianSec("cache.Optimize(hit)")
	_, missSelf := tr.byLayer()["cache.Optimize(miss)"].perOp(s.hot)
	handler := tr.medianSec("server.ServeHTTP")
	local := tr.medianSec("loopback(local)")
	remote := tr.medianSec("loopback(remote)")
	v["dp.leftdeep_ms"] = ms(tr.medianSec("dp.OptimizeLeftDeep"))
	v["dp.greedy_us"] = us(tr.medianSec("dp.GreedyLeftDeep"))
	v["cache.canonicalize_us"] = us(canon)
	v["cache.hit_us"] = us(hit)
	v["cache.hit_self_us"] = us(hit - canon)
	v["cache.store_us"] = us(missSelf)
	v["server.handler_hit_us"] = us(handler)
	v["server.handler_self_us"] = us(handler - hit)
	v["server.http_overhead_us"] = us(local - handler)
	v["server.req_bytes"] = reqBytes
	v["server.resp_bytes"] = respBytes
	v["trace.overhead_share"] = ratio(traced.seconds, untraced.seconds) - 1

	// What the nodes counted, set-up and probes included.
	var lookups, hits, evicted, cacheBytes, entries, queueSec, admitted, shed, arrivals, forwards, replicated float64
	for _, n := range sys.nodes {
		snap := n.srv.Snapshot()
		lookups += float64(snap.Cache.Hits + snap.Cache.Misses + snap.Cache.Coalesced)
		hits += float64(snap.Cache.Hits)
		evicted += float64(snap.Cache.Evicted)
		cacheBytes += float64(snap.Cache.Bytes)
		entries += float64(snap.Cache.Entries)
		queueSec += snap.QueueWaitSec
		admitted += float64(snap.Solves)
		shed += float64(snap.Shed)
		arrivals += float64(snap.Requests)
		if snap.Cluster != nil {
			forwards += float64(snap.Cluster.Forwards)
			replicated += float64(snap.Cluster.Replicated)
		}
	}
	v["cache.hit_share"] = ratio(hits, lookups)
	v["cache.evictions"] = evicted
	v["cache.bytes_per_entry"] = ratio(cacheBytes, entries)
	v["server.queue_wait_us"] = us(ratio(queueSec, admitted))
	v["server.shed"] = shed

	if len(sys.nodes) > 1 {
		ring := sys.nodes[0].router.Ring()
		var keys []string
		for _, variants := range sys.hot {
			ce, err := cache.Canonicalize(variants[0].q, cache.Exact)
			if err != nil {
				return nil, err
			}
			keys = append(keys, ce.Key)
		}
		const rounds = 200
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				ring.Owner(k)
			}
		}
		v["cluster.owner_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(keys))
		v["cluster.forward_share"] = ratio(forwards, arrivals-forwards)
		v["cluster.local_hit_us"] = us(local)
		v["cluster.remote_hit_us"] = us(remote)
		v["cluster.hop_us"] = us(remote - local)
		v["cluster.replications"] = replicated
	}

	if s.persist {
		if err := sys.probePersist(tr, records, v); err != nil {
			return nil, err
		}
	}

	counts := map[string]float64{
		"requests.untraced": float64(len(untraced.latencies)),
		"requests.traced":   float64(len(traced.latencies)),
		"cache.lookups":     lookups,
		"cache.hits":        hits,
		"cluster.forwards":  forwards,
	}
	if err := tr.write(env.outDir, s.name, env.seed, counts); err != nil {
		return nil, err
	}
	return out, nil
}

// probePersist appends the records the cache probe captured to a scratch log
// of the workload's policy, one span per append, and reopens node 0's log to
// time a restart's replay. It runs last: the node's cache loses its log.
func (sys *system) probePersist(tr *tracer, records []storedRecord, v map[string]float64) error {
	n := sys.nodes[0]
	dir, err := os.MkdirTemp(n.logDir, "probe-")
	if err != nil {
		return err
	}
	scratch, err := persist.Open(persist.Config{Dir: dir, Policy: persist.SyncNone})
	if err != nil {
		return err
	}
	for i, r := range records {
		sp := tr.begin("persist.Put", i, -1)
		err := scratch.Put(r.kind, r.key, r.val)
		tr.end(sp)
		if err != nil {
			scratch.Close() //nolint:errcheck // the append error is the one to report
			return err
		}
	}
	st := scratch.Stats()
	if err := scratch.Close(); err != nil {
		return err
	}
	v["persist.put_us"] = us(tr.medianSec("persist.Put"))
	v["persist.bytes_per_record"] = ratio(float64(st.FileBytes-st.DeadBytes), float64(st.LiveRecords))
	v["persist.compactions"] = float64(n.log.Stats().Compactions)

	if err := n.log.Close(); err != nil {
		return err
	}
	sp := tr.begin("persist.Open+Each", 0, -1)
	reopened, err := persist.Open(persist.Config{Dir: n.logDir, Policy: persist.SyncNone})
	if err != nil {
		return err
	}
	n.log = reopened
	replayed := 0
	err = reopened.Each(func(persist.Record) error { replayed++; return nil })
	v["persist.replay_ms"] = ms(tr.end(sp))
	v["persist.replayed_records"] = float64(replayed)
	return err
}
