package portfolio

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
)

func p(order ...int) *plan.Plan { return &plan.Plan{Order: order} }

func TestBusKeepsStrictlyBestIncumbent(t *testing.T) {
	b := NewBus()
	if _, c, _ := b.Best(); !math.IsInf(c, 1) {
		t.Fatalf("empty bus cost %g, want +Inf", c)
	}
	if !b.Publish("a", p(0, 1), 100) {
		t.Fatal("first publication must improve")
	}
	if b.Publish("b", p(1, 0), 100) {
		t.Fatal("equal cost must not improve")
	}
	if b.Publish("b", p(1, 0), 150) {
		t.Fatal("worse cost must not improve")
	}
	if !b.Publish("b", p(1, 0), 50) {
		t.Fatal("cheaper plan must improve")
	}
	pl, c, from := b.Best()
	if c != 50 || from != "b" || pl == nil || pl.Order[0] != 1 {
		t.Fatalf("best = (%v, %g, %q)", pl, c, from)
	}
	pub, imp := b.Stats()
	if pub != 4 || imp != 2 {
		t.Fatalf("stats = (%d, %d), want (4, 2)", pub, imp)
	}
}

func TestBusSubscriberSkipsOwnPublications(t *testing.T) {
	b := NewBus()
	ch := b.Subscribe("milp")
	b.Publish("milp", p(0, 1), 10)
	select {
	case got := <-ch:
		t.Fatalf("subscriber received its own publication %v", got)
	default:
	}
	b.Publish("greedy", p(1, 0), 5)
	select {
	case got := <-ch:
		if got.Order[0] != 1 {
			t.Fatalf("wrong plan %v", got)
		}
	default:
		t.Fatal("peer publication not delivered")
	}
}

func TestBusLatestWins(t *testing.T) {
	b := NewBus()
	ch := b.Subscribe("milp")
	b.Publish("a", p(0, 1, 2), 30)
	b.Publish("a", p(2, 1, 0), 20) // not consumed yet: replaces, not queues
	got, ok := <-ch
	if !ok || got.Order[0] != 2 {
		t.Fatalf("got %v, want the latest plan", got)
	}
	select {
	case stale := <-ch:
		t.Fatalf("stale plan %v still queued", stale)
	default:
	}
}

func TestBusLateSubscriberSeesIncumbent(t *testing.T) {
	b := NewBus()
	b.Publish("greedy", p(0, 1), 7)
	ch := b.Subscribe("milp")
	select {
	case got := <-ch:
		if got == nil {
			t.Fatal("nil incumbent")
		}
	default:
		t.Fatal("late subscriber did not receive the current incumbent")
	}
	// A late subscriber whose own plan is the incumbent gets nothing.
	own := b.Subscribe("greedy")
	select {
	case got := <-own:
		t.Fatalf("own incumbent echoed back: %v", got)
	default:
	}
}

// TestBusBoundAndGap: the bus's incumbent and bound give the race-wide
// gap under the one gap formula, obs.RelGap.
func TestBusBoundAndGap(t *testing.T) {
	b := NewBus()
	gap := func() float64 {
		_, best, _ := b.Best()
		bound, _ := b.BestBound()
		return obs.RelGap(best, bound)
	}
	if g := gap(); !math.IsInf(g, 1) {
		t.Fatalf("empty gap %g, want +Inf", g)
	}
	b.Publish("a", p(0, 1), 100)
	b.PublishBound("dp", 80)
	b.PublishBound("dp", 60) // looser: ignored
	bound, from := b.BestBound()
	if bound != 80 || from != "dp" {
		t.Fatalf("bound = (%g, %q), want (80, dp)", bound, from)
	}
	if g := gap(); math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("gap = %g, want 0.2", g)
	}
	b.PublishBound("dp", 100)
	if g := gap(); g != 0 {
		t.Fatalf("closed gap = %g, want 0", g)
	}
}

func TestBusCloseIdempotentAndTerminal(t *testing.T) {
	b := NewBus()
	ch := b.Subscribe("milp")
	b.Close()
	b.Close()
	if _, ok := <-ch; ok {
		t.Fatal("subscriber channel not closed")
	}
	if b.Publish("a", p(0, 1), 1) {
		t.Fatal("publish on a closed bus succeeded")
	}
	late := b.Subscribe("x")
	if _, ok := <-late; ok {
		t.Fatal("subscription after close returned an open channel")
	}
}

// TestBusConcurrentPublishers hammers the bus from several goroutines
// (run under -race) and checks the final incumbent is the global
// minimum and improvements were counted monotonically.
func TestBusConcurrentPublishers(t *testing.T) {
	b := NewBus()
	ch := b.Subscribe("consumer")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			for i := 0; i < 200; i++ {
				cost := float64((g*211+i*97)%1000) + 1
				b.Publish(name, p(0, 1, 2), cost)
			}
		}(g)
	}
	wg.Wait()
	if _, c, _ := b.Best(); c != 1 {
		t.Fatalf("final incumbent %g, want the global minimum 1", c)
	}
	b.Close()
	<-done
}
