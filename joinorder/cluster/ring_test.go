package cluster

import (
	"fmt"
	"testing"
)

func threePeers() []Peer {
	return []Peer{
		{ID: "n0", URL: "http://127.0.0.1:9100"},
		{ID: "n1", URL: "http://127.0.0.1:9101"},
		{ID: "n2", URL: "http://127.0.0.1:9102"},
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n0=http://a:1, n1=http://b:2 ,n2=https://c:3/")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[0].ID != "n0" || peers[2].URL != "https://c:3" {
		t.Fatalf("peers = %+v", peers)
	}
	if got, _ := ParsePeers(""); got != nil {
		t.Fatalf("empty list parsed to %+v", got)
	}
	for _, bad := range []string{
		"http://a:1",              // no id
		"n0=",                     // no url
		"n0=ftp://a:1",            // wrong scheme
		"n0=http://a,n0=http://b", // dup id
		"=http://a:1",             // empty id
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestRingDeterministicAndComplete(t *testing.T) {
	r1, err := NewRing(threePeers(), 64)
	if err != nil {
		t.Fatal(err)
	}
	// A peer list in any order yields identical ownership.
	shuffled := []Peer{threePeers()[2], threePeers()[0], threePeers()[1]}
	r2, err := NewRing(shuffled, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		o1, o2 := r1.Owner(key), r2.Owner(key)
		if o1.ID != o2.ID {
			t.Fatalf("key %q: ownership differs across list orders (%s vs %s)", key, o1.ID, o2.ID)
		}
		counts[o1.ID]++
	}
	// With 64 vnodes the shards should be roughly balanced: every node
	// owns a substantial share.
	for id, n := range counts {
		if n < 3000/10 {
			t.Errorf("peer %s owns only %d/3000 keys — ring badly unbalanced: %v", id, n, counts)
		}
	}
}

func TestRingReplicas(t *testing.T) {
	r, err := NewRing(threePeers(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("fp-%d", i)
		reps := r.Replicas(key, 2)
		if len(reps) != 3 {
			t.Fatalf("key %q: %d replicas, want 3 (owner + 2)", key, len(reps))
		}
		if reps[0].ID != r.Owner(key).ID {
			t.Fatalf("key %q: first replica %s is not the owner %s", key, reps[0].ID, r.Owner(key).ID)
		}
		seen := map[string]bool{}
		for _, p := range reps {
			if seen[p.ID] {
				t.Fatalf("key %q: duplicate replica %s", key, p.ID)
			}
			seen[p.ID] = true
		}
	}
	// Asking for more successors than exist returns every peer once.
	if got := r.Replicas("x", 99); len(got) != 3 {
		t.Fatalf("oversized replica ask returned %d peers", len(got))
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]Peer{{ID: "", URL: "http://a"}}, 4); err == nil {
		t.Error("empty peer id accepted")
	}
	if _, err := NewRing([]Peer{{ID: "a"}, {ID: "a"}}, 4); err == nil {
		t.Error("duplicate peer id accepted")
	}
}
