package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"milpjoin/joinorder/cluster"
)

// NodeHeader names the node that produced a response, for observability
// and cluster tests: the ingress node for everything it answers itself
// (what it owns, replica reads, fail-open solves), the owner's ID, carried
// through the proxy hop, for a forwarded miss.
const NodeHeader = "X-Joinopt-Node"

// routingFingerprint extracts the canonical query fingerprint from a
// full cache key ("e|<options>|<fp>" or "s|<options>|<fp>"): the segment
// after the last separator. Routing on the fingerprint alone — not the
// options digest — keeps every variant of one query on one node, so its
// donors and exact entries share a shard.
func routingFingerprint(key string) string {
	if i := strings.LastIndexByte(key, '|'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// remoteOwner names the healthy peer that must answer pr: the owner of its
// query when that is another node and this node does not hold the answer.
// It routes on the fingerprint the gate already computed. Non-clustered
// servers, forwarded arrivals (pinned local) and uncacheable queries
// (nothing to gain from shard affinity) always answer false. So does a
// replica read (marked on pr): an exact entry is a pure function of its key,
// so a node holding a live one serves it through the ordinary local path and
// only misses travel — the owner stays the one place where they coalesce and
// solve. The probe is not a lookup; should the entry expire or be evicted
// before serve looks it up, the request solves here, as fail-open already
// may.
func (s *Server) remoteOwner(pr *prepared) (cluster.Peer, bool) {
	rt := s.cfg.Cluster
	if rt == nil || pr.forwarded || pr.canon == nil {
		return cluster.Peer{}, false
	}
	owner, remote := rt.Route(pr.canon.Key)
	if remote && s.co.Holds(pr.ekey) {
		rt.ServedReplica()
		pr.replica = true
		return cluster.Peer{}, false
	}
	return owner, remote
}

// tryForward routes one prepared optimize request through the cluster:
// when another healthy node owns the query's fingerprint and this node
// does not hold its answer, the raw body is proxied there and the peer's
// response relayed verbatim. It reports whether the response was written.
// A false return — nothing to forward (see remoteOwner) or a failed
// forward (fail open) — means the caller must serve locally.
func (s *Server) tryForward(w http.ResponseWriter, r *http.Request, pr *prepared) bool {
	rt := s.cfg.Cluster
	if rt == nil {
		return false
	}
	w.Header().Set(NodeHeader, rt.Self().ID)
	if pr.forwarded {
		rt.ServedLocal()
		return false
	}
	owner, remote := s.remoteOwner(pr)
	if !remote {
		return false
	}
	// net/http may still be reading a request body after the round trip
	// returns, so a buffer lent to it is never recycled.
	pr.rawBuf = nil
	resp, err := rt.Forward(r.Context(), owner, "/v1/optimize", r.Header, pr.raw)
	if err != nil {
		// The peer is unreachable: answer here rather than failing the
		// request. Forward already demoted the peer's health.
		s.log.Warn("cluster forward failed; serving locally",
			"peer", owner.ID, "req", pr.id, "err", err)
		return false
	}
	defer resp.Body.Close()
	relayResponse(w, resp, owner)
	return true
}

// relayResponse copies a peer's HTTP answer to the client.
func relayResponse(w http.ResponseWriter, resp *http.Response, owner cluster.Peer) {
	for _, h := range []string{"Content-Type", "Content-Length", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if v := resp.Header.Get(NodeHeader); v != "" {
		w.Header().Set(NodeHeader, v)
	} else {
		w.Header().Set(NodeHeader, owner.ID)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client gone; nothing to do
}

// handleClusterEntry is POST /v1/cluster/entry: the peer-to-peer cache
// replication ingest. The body is one cluster.Entry; a valid entry lands
// in the in-memory cache and the local persistent log (so replicas
// survive this node's restart) without re-announcing through OnStore.
func (s *Server) handleClusterEntry(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	var e cluster.Entry
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&e); err != nil {
		writeError(w, errBadRequest("parsing entry: "+err.Error()))
		return
	}
	if err := s.co.ImportRecord(e.Kind, e.Key, e.Val); err != nil {
		writeError(w, errBadRequest(err.Error()))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
