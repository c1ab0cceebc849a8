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
}

func TestBusLatestWins(t *testing.T) {
	b := NewBus()
	if got := b.Take(); got != nil {
		t.Fatalf("empty bus handed out %v", got)
	}
	b.Publish("a", p(0, 1, 2), 30)
	b.Publish("a", p(2, 1, 0), 20) // not taken yet: replaces, not queues
	if got := b.Take(); got == nil || got.Order[0] != 2 {
		t.Fatalf("got %v, want the latest plan", got)
	}
	if stale := b.Take(); stale != nil {
		t.Fatalf("plan %v handed out twice", stale)
	}
	b.Publish("a", p(1, 0, 2), 25) // worse: nothing new to take
	if got := b.Take(); got != nil {
		t.Fatalf("non-improving publication handed out: %v", got)
	}
}

// TestBusLateTakeSeesIncumbent: a reader that starts after the members
// published still gets the current incumbent on its first Take.
func TestBusLateTakeSeesIncumbent(t *testing.T) {
	b := NewBus()
	b.Publish("greedy", p(0, 1), 7)
	if got := b.Take(); got == nil || got.Order[0] != 0 {
		t.Fatalf("late reader got %v, want the current incumbent", got)
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

// TestBusConcurrentPublishers hammers the bus from several goroutines
// (run under -race) and checks the final incumbent is the global
// minimum.
func TestBusConcurrentPublishers(t *testing.T) {
	b := NewBus()
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
}

// TestBusConcurrentTakers runs 8 Take callers against 4 publishers (run
// under -race): no plan is taken twice, every taken plan was the bus's
// best when it was published, and once the publishers are done exactly
// one Take returns the final best and every later one returns nil.
func TestBusConcurrentTakers(t *testing.T) {
	const publishers, takers, rounds = 4, 8, 500
	b := NewBus()
	var (
		mu       sync.Mutex
		improved = map[*plan.Plan]bool{} // plans whose Publish improved the bus
		taken    = map[*plan.Plan]int{}
	)
	var pubs, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < takers; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if pl := b.Take(); pl != nil {
					mu.Lock()
					taken[pl]++
					mu.Unlock()
				}
			}
		}()
	}
	for g := 0; g < publishers; g++ {
		pubs.Add(1)
		go func(g int) {
			defer pubs.Done()
			for i := 0; i < rounds; i++ {
				pl := p(g, i)
				// Costs fall overall but interleave across publishers, so
				// some publications lose to a peer's.
				cost := float64(rounds-i)*10 + float64((g*7+i*3)%10)
				if b.Publish(fmt.Sprintf("m%d", g), pl, cost) {
					mu.Lock()
					improved[pl] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	pubs.Wait()
	close(stop)
	readers.Wait()

	for pl, n := range taken {
		if n != 1 {
			t.Errorf("plan %v taken %d times", pl.Order, n)
		}
		if !improved[pl] {
			t.Errorf("taken plan %v was never the bus's best", pl.Order)
		}
	}
	final, _, _ := b.Best()
	if final == nil || !improved[final] {
		t.Fatalf("final best %v is not an improving publication", final)
	}
	// After the last publication the final best is taken exactly once:
	// either a taker got it already, or the next Take returns it.
	if taken[final] == 0 {
		if got := b.Take(); got != final {
			t.Fatalf("first Take after the race = %v, want the final best %v", got, final.Order)
		}
	}
	for i := 0; i < 3; i++ {
		if got := b.Take(); got != nil {
			t.Fatalf("Take after the final best was taken returned %v", got.Order)
		}
	}
}
