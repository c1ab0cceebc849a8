// Package cluster shards a fleet of joinoptd processes over the plan
// cache's canonical query fingerprints. A consistent-hash ring assigns
// every fingerprint one owning node; requests that land elsewhere are
// forwarded to the owner, so the fleet solves each distinct query once
// and each node's cache holds its shard of the fingerprint space instead
// of a copy of everything. Hot entries are replicated to the owner's
// ring successors for restart resilience and read spreading. Membership
// is a static peer list (flag-configured); liveness is tracked by
// periodic health probes and routing fails open — a request whose owner
// is unreachable is served locally rather than erroring.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// Peer is one cluster member: a stable node ID and the HTTP base URL the
// other members reach it at.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// ParsePeers parses a static peer list of the form
// "id1=http://host1:port,id2=http://host2:port". IDs must be unique and
// non-empty; URLs must be absolute http(s) URLs. The result keeps the
// listed order (the ring itself is order-independent).
func ParsePeers(s string) ([]Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, raw, ok := strings.Cut(part, "=")
		if !ok || id == "" || raw == "" {
			return nil, fmt.Errorf("cluster: peer %q: want id=url", part)
		}
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q: %q is not an absolute http(s) URL", id, raw)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, URL: strings.TrimRight(raw, "/")})
	}
	return peers, nil
}

// Ring is a consistent-hash ring over the peer set. Each peer projects
// vnodes points onto a 64-bit circle; a key is owned by the peer whose
// point follows the key's hash. Hashing is sha256-based and depends only
// on peer IDs and the key, so every node computes identical ownership
// from the same peer list — no coordination protocol needed.
type Ring struct {
	points []ringPoint // sorted ascending by hash
	peers  map[string]Peer
	order  []Peer // original list order, for iteration
}

type ringPoint struct {
	h  uint64
	id string
}

// hash64 maps a string to a point on the circle.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring. vnodes is the number of points per peer
// (default 64 when ≤ 0); more points smooth the shard balance at the
// cost of a larger sorted index.
func NewRing(peers []Peer, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(peers)*vnodes),
		peers:  make(map[string]Peer, len(peers)),
		order:  append([]Peer(nil), peers...),
	}
	for _, p := range peers {
		if p.ID == "" {
			return nil, fmt.Errorf("cluster: peer with empty id")
		}
		if _, dup := r.peers[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		r.peers[p.ID] = p
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: hash64(fmt.Sprintf("%s#%d", p.ID, v)), id: p.ID})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// Peers returns the membership in list order.
func (r *Ring) Peers() []Peer { return append([]Peer(nil), r.order...) }

// Peer looks a member up by ID.
func (r *Ring) Peer(id string) (Peer, bool) {
	p, ok := r.peers[id]
	return p, ok
}

// Owner returns the peer owning the key.
func (r *Ring) Owner(key string) Peer {
	return r.peers[r.points[r.at(key)].id]
}

// Replicas returns the key's owner followed by up to n distinct
// successor peers walking clockwise from the owner's point — the nodes
// that hold the key's replicas.
func (r *Ring) Replicas(key string, n int) []Peer {
	out := make([]Peer, 0, n+1)
	seen := map[string]bool{}
	i := r.at(key)
	for range r.points {
		id := r.points[i].id
		if !seen[id] {
			seen[id] = true
			out = append(out, r.peers[id])
			if len(out) == n+1 {
				break
			}
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// at returns the index of the first ring point at or after the key's
// hash (wrapping).
func (r *Ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
