package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"milpjoin/joinorder"
)

// ForwardHeader marks a request as already forwarded once. A node
// receiving it serves locally no matter what the ring says, so ownership
// disagreement during a membership change degrades to one extra hop,
// never a loop.
const ForwardHeader = "X-Joinopt-Forward"

// EntryPath is the peer-to-peer cache replication endpoint.
const EntryPath = "/v1/cluster/entry"

// Entry is one replicated cache record on the wire: the persist-layer
// kind ("exact" or "donor"), the full cache key, and the serialized
// value. Val is base64 in JSON per encoding/json convention.
type Entry struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	Val  []byte `json:"val"`
}

// Config configures a Router.
type Config struct {
	// Self is this node's peer ID; it must appear in Peers.
	Self string
	// Peers is the full static membership, including self.
	Peers []Peer
	// Replicas is how many ring successors beyond the owner receive
	// copies of each stored entry: 0 disables replication, a count at or
	// above the other peers' means every peer, and a negative count is
	// rejected by New.
	Replicas int
	// ProbeInterval is the health-probe period (default 2s; negative
	// disables probing, leaving every peer permanently healthy).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 500ms).
	ProbeTimeout time.Duration
	// Client is the HTTP client used for forwards, probes, and
	// replication (default: a dedicated client with sane pooling).
	Client *http.Client
	// Logger receives probe transitions and replication failures
	// (default slog.Default).
	Logger *slog.Logger
}

// vnodes is the number of consistent-hash points per peer, and
// replicationQueue bounds the asynchronous replication queue: when it is
// full, new entries are dropped and counted — replication is best-effort by
// design.
const (
	vnodes           = 64
	replicationQueue = 1024
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Stats is a point-in-time snapshot of routing activity for /varz.
type Stats struct {
	// Self and Peers describe the configured membership.
	Self  string `json:"self"`
	Peers int    `json:"peers"`
	// PeersUp counts peers (excluding self) currently passing probes.
	PeersUp int `json:"peers_up"`
	// RoutedLocal counts requests answered on this node without a forward
	// attempt: those the ring assigned to it, those whose owner is down,
	// replica reads (also in ReplicaHits) and forwarded arrivals, which are
	// always served locally.
	RoutedLocal int64 `json:"routed_local"`
	// ReplicaHits counts requests another healthy node owns that were
	// answered here because this node held the entry.
	ReplicaHits int64 `json:"replica_hits"`
	// Forwards counts requests proxied to their owning peer.
	Forwards int64 `json:"forwards"`
	// ForwardErrors counts forwards that failed and fell open to a local
	// solve.
	ForwardErrors int64 `json:"forward_errors"`
	// Replicated counts entry copies successfully shipped to peers.
	Replicated int64 `json:"replicated"`
	// ReplicateErrors counts failed replication posts.
	ReplicateErrors int64 `json:"replicate_errors"`
	// ReplicateDropped counts entries dropped because the replication
	// queue was full.
	ReplicateDropped int64 `json:"replicate_dropped"`
	// ProbeFails counts failed health probes.
	ProbeFails int64 `json:"probe_fails"`
}

// Router owns a node's view of the cluster: the ring, peer health, the
// forwarding client, and the asynchronous replication queue. All methods
// are safe for concurrent use.
type Router struct {
	cfg  Config
	ring *Ring
	self Peer

	health sync.Map // peer id -> *atomic.Bool

	repq     chan repItem
	done     chan struct{}
	wg       sync.WaitGroup
	enqueued atomic.Int64 // replication items accepted into the queue
	shipped  atomic.Int64 // replication items fully processed

	routedLocal      atomic.Int64
	replicaHits      atomic.Int64
	forwards         atomic.Int64
	forwardErrors    atomic.Int64
	replicated       atomic.Int64
	replicateErrors  atomic.Int64
	replicateDropped atomic.Int64
	probeFails       atomic.Int64
}

type repItem struct {
	fp    string // routing fingerprint of the entry's query
	entry Entry
}

// New builds a Router and starts its probe and replication workers.
// Close releases them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Peers, vnodes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", joinorder.ErrInvalidOptions, err)
	}
	self, ok := ring.Peer(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("%w: cluster: self id %q not in peer list", joinorder.ErrInvalidOptions, cfg.Self)
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("%w: cluster: negative Replicas %d", joinorder.ErrInvalidOptions, cfg.Replicas)
	}
	// More replicas than other peers just means "everyone".
	cfg.Replicas = min(cfg.Replicas, len(cfg.Peers)-1)
	r := &Router{
		cfg:  cfg,
		ring: ring,
		self: self,
		repq: make(chan repItem, replicationQueue),
		done: make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		up := &atomic.Bool{}
		up.Store(true) // optimistic start; probes demote
		r.health.Store(p.ID, up)
	}
	r.wg.Add(1)
	go r.replicateLoop()
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the probe and replication workers, dropping any queued
// replication entries (they are best-effort).
func (r *Router) Close() {
	close(r.done)
	r.wg.Wait()
}

// Self returns this node's peer record.
func (r *Router) Self() Peer { return r.self }

// Ring exposes the underlying ring (ownership queries in tests/tools).
func (r *Router) Ring() *Ring { return r.ring }

// Route decides where a request with the given routing fingerprint runs:
// the owning peer and true when it should be forwarded, or the local
// node and false when this node owns it — or when the owner is down
// (fail open: a reachable answer beats a correct shard). A caller that
// holds the answer may decline a forward; it says so with ServedReplica.
func (r *Router) Route(fp string) (Peer, bool) {
	owner := r.ring.Owner(fp)
	if owner.ID == r.self.ID || !r.Healthy(owner.ID) {
		r.routedLocal.Add(1)
		return r.self, false
	}
	return owner, true
}

// ServedLocal records a forwarded arrival (it is pinned local).
func (r *Router) ServedLocal() { r.routedLocal.Add(1) }

// ServedReplica records a request Route sent to a peer that the caller
// answers itself instead, from its copy of the entry.
func (r *Router) ServedReplica() {
	r.routedLocal.Add(1)
	r.replicaHits.Add(1)
}

// Healthy reports the latest probe verdict for the peer (self is always
// healthy).
func (r *Router) Healthy(id string) bool {
	if id == r.self.ID {
		return true
	}
	v, ok := r.health.Load(id)
	if !ok {
		return false
	}
	return v.(*atomic.Bool).Load()
}

// markHealth records a verdict, logging transitions.
func (r *Router) markHealth(id string, up bool) {
	v, ok := r.health.Load(id)
	if !ok {
		return
	}
	if v.(*atomic.Bool).Swap(up) != up {
		r.cfg.Logger.Info("cluster peer health changed", "peer", id, "up", up)
	}
}

// Forward proxies one optimize request body to the owning peer and
// returns the peer's response. The ForwardHeader pins the request local
// on the peer, preventing loops. A transport-level failure (no HTTP
// response at all) marks the peer unhealthy — the next probe can restore
// it — and returns an error so the caller can fail open; an HTTP error
// status is the answer, passed through verbatim.
func (r *Router) Forward(ctx context.Context, peer Peer, path string, header http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", "X-Tenant"} {
		if v := header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(ForwardHeader, r.self.ID)
	r.forwards.Add(1)
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		r.forwardErrors.Add(1)
		if ctx.Err() == nil {
			// The peer, not the client, failed: demote it until a probe
			// succeeds so subsequent requests skip the dead hop.
			r.markHealth(peer.ID, false)
		}
		return nil, err
	}
	return resp, nil
}

// Replicate enqueues one freshly stored cache entry for asynchronous
// best-effort replication to the fingerprint's replica set (the owner's
// ring successors, excluding self). It never blocks: a full queue drops
// the entry and counts it. fp is the entry's routing fingerprint; kind,
// key, val are the persist-layer record.
func (r *Router) Replicate(fp, kind, key string, val []byte) {
	if r.cfg.Replicas == 0 {
		return
	}
	select {
	case r.repq <- repItem{fp: fp, entry: Entry{Kind: kind, Key: key, Val: val}}:
		r.enqueued.Add(1)
	case <-r.done:
	default:
		r.replicateDropped.Add(1)
	}
}

// Flush blocks until the replication queue is empty and the in-flight
// item (if any) has been posted. Test and shutdown helper.
func (r *Router) Flush(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if r.shipped.Load() == r.enqueued.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// replicateLoop drains the replication queue, posting each entry to
// every replica peer of its fingerprint.
func (r *Router) replicateLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case it := <-r.repq:
			r.shipEntry(it)
			r.shipped.Add(1)
		}
	}
}

// shipEntry posts one entry to each replica target.
func (r *Router) shipEntry(it repItem) {
	body, err := json.Marshal(it.entry)
	if err != nil {
		r.replicateErrors.Add(1)
		return
	}
	for _, p := range r.ring.Replicas(it.fp, r.cfg.Replicas) {
		if p.ID == r.self.ID || !r.Healthy(p.ID) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+EntryPath, bytes.NewReader(body))
		if err != nil {
			cancel()
			r.replicateErrors.Add(1)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardHeader, r.self.ID)
		resp, err := r.cfg.Client.Do(req)
		if err != nil || resp.StatusCode >= 300 {
			r.replicateErrors.Add(1)
			if err == nil {
				drainClose(resp)
			}
			cancel()
			continue
		}
		drainClose(resp)
		cancel()
		r.replicated.Add(1)
	}
}

// probeLoop periodically GETs every peer's /healthz.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
			r.probeOnce()
		}
	}
}

func (r *Router) probeOnce() {
	var wg sync.WaitGroup
	for _, p := range r.cfg.Peers {
		if p.ID == r.self.ID {
			continue
		}
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := r.cfg.Client.Do(req)
			up := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				drainClose(resp)
			}
			if !up {
				r.probeFails.Add(1)
			}
			r.markHealth(p.ID, up)
		}(p)
	}
	wg.Wait()
}

// Stats snapshots routing counters.
func (r *Router) Stats() Stats {
	up := 0
	for _, p := range r.cfg.Peers {
		if p.ID != r.self.ID && r.Healthy(p.ID) {
			up++
		}
	}
	return Stats{
		Self:             r.self.ID,
		Peers:            len(r.cfg.Peers),
		PeersUp:          up,
		RoutedLocal:      r.routedLocal.Load(),
		ReplicaHits:      r.replicaHits.Load(),
		Forwards:         r.forwards.Load(),
		ForwardErrors:    r.forwardErrors.Load(),
		Replicated:       r.replicated.Load(),
		ReplicateErrors:  r.replicateErrors.Load(),
		ReplicateDropped: r.replicateDropped.Load(),
		ProbeFails:       r.probeFails.Load(),
	}
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}
