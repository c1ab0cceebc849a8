package joinorder_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestValidatePortfolioOptions: every invalid portfolio configuration is
// rejected up front with a typed error, before any member runs.
func TestValidatePortfolioOptions(t *testing.T) {
	q := smallQuery()
	cases := []struct {
		name string
		opts joinorder.Options
		want error
	}{
		{"non-auto strategy", joinorder.Options{Strategy: "greedy", Portfolio: []string{"milp"}}, joinorder.ErrInvalidOptions},
		{"default strategy", joinorder.Options{Portfolio: []string{"milp"}}, joinorder.ErrInvalidOptions},
		{"empty member list", joinorder.Options{Strategy: "auto", Portfolio: []string{}}, joinorder.ErrInvalidOptions},
		{"nested auto", joinorder.Options{Strategy: "auto", Portfolio: []string{"greedy", "auto"}}, joinorder.ErrInvalidOptions},
		{"empty member name", joinorder.Options{Strategy: "auto", Portfolio: []string{""}}, joinorder.ErrInvalidOptions},
		{"duplicate member", joinorder.Options{Strategy: "auto", Portfolio: []string{"greedy", "greedy"}}, joinorder.ErrInvalidOptions},
		{"unknown member", joinorder.Options{Strategy: "auto", Portfolio: []string{"quantum"}}, joinorder.ErrUnknownStrategy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := joinorder.Optimize(context.Background(), q, tc.opts); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestAutoDeterministicWinner: with a fixed seed and single-threaded
// members, the same race run twice yields the same winner, cost, and
// status.
func TestAutoDeterministicWinner(t *testing.T) {
	q := workload.Generate(workload.Star, 10, 2, workload.Config{})
	opts := joinorder.Options{
		Strategy:  "auto",
		Portfolio: []string{"dp-bushy", "greedy"},
		Budget:    joinorder.Budget{TimeLimit: 30 * time.Second, Threads: 1},
		Seed:      7,
	}
	run := func() *joinorder.Result {
		res, err := joinorder.Optimize(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Winner != b.Winner || a.Cost != b.Cost || a.Status != b.Status {
		t.Fatalf("nondeterministic race: (%q %g %v) vs (%q %g %v)",
			a.Winner, a.Cost, a.Status, b.Winner, b.Cost, b.Status)
	}
	if a.Strategy != "auto" {
		t.Errorf("strategy = %q, want auto", a.Strategy)
	}
	// The exact DP proves optimality, so it must win over the unproven
	// greedy answer (cheaper cost, or the stronger status on a tie).
	if a.Winner != "dp-bushy" {
		t.Errorf("winner = %q, want dp-bushy", a.Winner)
	}
	if a.Status != joinorder.StatusOptimal {
		t.Errorf("status = %v, want optimal", a.Status)
	}
	if a.Tree == nil {
		t.Error("no tree from the bushy winner")
	}
}

// TestAutoEventStreamCoherent: the merged portfolio event stream is
// renumbered race-wide, tags every member event with its strategy, holds
// the incumbent-monotonicity guarantee per member, and ends with a
// winner event matching the result.
func TestAutoEventStreamCoherent(t *testing.T) {
	q := workload.Generate(workload.Star, 12, 3, workload.Config{})
	var events []joinorder.Event
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: "auto",
		Budget:   joinorder.Budget{TimeLimit: 10 * time.Second, Threads: 1},
		Seed:     1,
		OnEvent:  func(ev joinorder.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events on the merged stream")
	}
	lastSeq := -1
	started := map[string]bool{}
	stopped := map[string]bool{}
	bestBy := map[string]float64{}
	var winnerEvents int
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("race-wide sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case joinorder.KindStrategyStart:
			started[ev.Strategy] = true
		case joinorder.KindStrategyStop:
			stopped[ev.Strategy] = true
		case joinorder.KindWinner:
			winnerEvents++
			if ev.Strategy != res.Winner {
				t.Errorf("winner event names %q, result says %q", ev.Strategy, res.Winner)
			}
		case joinorder.KindIncumbent:
			if ev.Strategy == "" {
				t.Error("incumbent event without a strategy tag on a portfolio stream")
				continue
			}
			if ev.HasIncumbent {
				if last, ok := bestBy[ev.Strategy]; ok && ev.Incumbent > last*(1+1e-9) {
					t.Errorf("%s incumbent regressed: %g after %g", ev.Strategy, ev.Incumbent, last)
				}
				if last, ok := bestBy[ev.Strategy]; !ok || ev.Incumbent < last {
					bestBy[ev.Strategy] = ev.Incumbent
				}
			}
		}
	}
	for _, m := range joinorder.DefaultPortfolio() {
		if !started[m] || !stopped[m] {
			t.Errorf("member %s lifecycle incomplete: start=%v stop=%v", m, started[m], stopped[m])
		}
	}
	if winnerEvents != 1 {
		t.Errorf("winner events = %d, want exactly 1", winnerEvents)
	}
	if res.Winner == "" {
		t.Error("result carries no winner")
	}
	if res.Cost <= 0 || math.IsInf(res.Cost, 0) {
		t.Errorf("bad cost %g", res.Cost)
	}
}

// TestAutoCancellation: cancelling the race context before it starts
// returns ErrCanceled, not a partial result.
func TestAutoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := joinorder.Optimize(ctx, largeQuery(), joinorder.Options{Strategy: "auto"})
	if !errors.Is(err, joinorder.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestAutoOnPlanSurfacesMembers: the caller's OnPlan callback observes
// member improvements tagged with the member name.
func TestAutoOnPlanSurfacesMembers(t *testing.T) {
	q := workload.Generate(workload.Star, 10, 4, workload.Config{})
	byStrategy := map[string]int{}
	_, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy:  "auto",
		Portfolio: []string{"gradient", "greedy"},
		Budget:    joinorder.Budget{TimeLimit: 20 * time.Second, Threads: 1},
		Seed:      2,
		OnPlan: func(u joinorder.PlanUpdate) {
			byStrategy[u.Strategy]++
			if u.Plan == nil {
				t.Error("plan update without a plan")
			}
			if err := u.Plan.Validate(q); err != nil {
				t.Errorf("invalid %s plan: %v", u.Strategy, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"gradient", "greedy"} {
		if byStrategy[m] == 0 {
			t.Errorf("no OnPlan updates from %s", m)
		}
	}
}
