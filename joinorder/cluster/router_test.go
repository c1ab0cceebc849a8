package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"milpjoin/joinorder"
)

// testPeerServer is a minimal peer: it records replicated entries and
// answers /healthz according to its up flag.
type testPeerServer struct {
	mu      sync.Mutex
	entries []Entry
	up      bool
	srv     *httptest.Server
}

func newTestPeer(t *testing.T) *testPeerServer {
	t.Helper()
	p := &testPeerServer{up: true}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		up := p.up
		p.mu.Unlock()
		if !up {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST "+EntryPath, func(w http.ResponseWriter, r *http.Request) {
		var e Entry
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.entries = append(p.entries, e)
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *testPeerServer) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

func TestRouterRouteAndFailOpen(t *testing.T) {
	peers := threePeers()
	r, err := New(Config{Self: "n0", Peers: peers, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sawRemote := false
	for i := 0; i < 200; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		owner, remote := r.Route(fp)
		want := r.Ring().Owner(fp)
		if remote {
			sawRemote = true
			if owner.ID != want.ID || owner.ID == "n0" {
				t.Fatalf("fp %q routed to %s, ring owner %s", fp, owner.ID, want.ID)
			}
		} else if owner.ID != "n0" {
			t.Fatalf("local route returned %s", owner.ID)
		}
	}
	if !sawRemote {
		t.Fatal("no fingerprint routed remotely across 200 keys")
	}

	// A remote route the caller answers itself is a replica read: served
	// here, never forwarded.
	local := r.Stats().RoutedLocal
	r.ServedReplica()
	if s := r.Stats(); s.ReplicaHits != 1 || s.RoutedLocal != local+1 || s.Forwards != 0 {
		t.Fatalf("after one replica read: stats = %+v", s)
	}

	// A peer marked down routes locally (fail open).
	r.markHealth("n1", false)
	r.markHealth("n2", false)
	for i := 0; i < 200; i++ {
		if _, remote := r.Route(fmt.Sprintf("fp-%d", i)); remote {
			t.Fatal("routed to a peer that is marked down")
		}
	}
	if s := r.Stats(); s.PeersUp != 0 || s.RoutedLocal == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRouterForwardSetsLoopHeaderAndDemotesDeadPeer(t *testing.T) {
	var gotHeader string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(ForwardHeader)
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"ok":true}`)
	}))
	defer backend.Close()

	peers := []Peer{{ID: "n0", URL: "http://127.0.0.1:1"}, {ID: "n1", URL: backend.URL}}
	r, err := New(Config{Self: "n0", Peers: peers, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	resp, err := r.Forward(context.Background(), Peer{ID: "n1", URL: backend.URL}, "/v1/optimize", http.Header{}, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if gotHeader != "n0" {
		t.Fatalf("forward header = %q, want sender id", gotHeader)
	}

	// Forwarding to an unreachable peer errors and demotes it.
	dead := Peer{ID: "n1", URL: "http://127.0.0.1:1"}
	if _, err := r.Forward(context.Background(), dead, "/v1/optimize", http.Header{}, nil); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
	if r.Healthy("n1") {
		t.Fatal("dead peer still healthy after failed forward")
	}
	if s := r.Stats(); s.Forwards != 2 || s.ForwardErrors != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRouterReplicatesToSuccessorsOnly(t *testing.T) {
	p1, p2 := newTestPeer(t), newTestPeer(t)
	peers := []Peer{
		{ID: "n0", URL: "http://127.0.0.1:1"}, // self; never posted to
		{ID: "n1", URL: p1.srv.URL},
		{ID: "n2", URL: p2.srv.URL},
	}
	r, err := New(Config{Self: "n0", Peers: peers, Replicas: 2, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 50
	for i := 0; i < n; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		r.Replicate(fp, "exact", "e|k|"+fp, []byte(`{"x":1}`))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Replicas=2 on a 3-node ring means every entry reaches both other
	// nodes (owner + 2 successors covers the full membership; self is
	// skipped).
	if p1.count() != n || p2.count() != n {
		t.Fatalf("replica counts = %d, %d; want %d each", p1.count(), p2.count(), n)
	}
	if s := r.Stats(); s.Replicated != 2*n || s.ReplicateErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Entries round-trip through the wire format.
	p1.mu.Lock()
	e := p1.entries[0]
	p1.mu.Unlock()
	if e.Kind != "exact" || string(e.Val) != `{"x":1}` {
		t.Fatalf("entry = %+v", e)
	}
}

func TestRouterProbeRecoversPeer(t *testing.T) {
	peer := newTestPeer(t)
	peer.mu.Lock()
	peer.up = false
	peer.mu.Unlock()
	r, err := New(Config{
		Self:          "n0",
		Peers:         []Peer{{ID: "n0", URL: "http://127.0.0.1:1"}, {ID: "n1", URL: peer.srv.URL}},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	deadline := time.Now().Add(3 * time.Second)
	for r.Healthy("n1") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Healthy("n1") {
		t.Fatal("failing peer never demoted by probes")
	}
	peer.mu.Lock()
	peer.up = true
	peer.mu.Unlock()
	for !r.Healthy("n1") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !r.Healthy("n1") {
		t.Fatal("recovered peer never promoted by probes")
	}
	if r.Stats().ProbeFails == 0 {
		t.Fatal("probe failures not counted")
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: "nope", Peers: threePeers()}); err == nil {
		t.Error("self outside peer list accepted")
	}
	if _, err := New(Config{Self: "n0", Peers: nil}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := New(Config{Self: "n0", Peers: threePeers(), Replicas: -1}); !errors.Is(err, joinorder.ErrInvalidOptions) {
		t.Errorf("Replicas -1: err = %v, want ErrInvalidOptions", err)
	}
}
