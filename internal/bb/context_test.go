package bb

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"milpjoin/internal/milp"
)

// hardKnapsack builds a correlated knapsack the search cannot close within
// a few milliseconds — the workload for cancellation and deadline tests.
func hardKnapsack(seed int64) *milp.Computational {
	rng := rand.New(rand.NewSource(seed))
	m := milp.NewModel("hard")
	e := milp.LinExpr{}
	for j := 0; j < 60; j++ {
		w := 1 + rng.Float64()*20
		v := m.AddBinary(-(w + rng.Float64()*0.01), "")
		e = e.Add(v, w)
	}
	m.AddConstr(e, milp.LE, 100, "cap")
	return m.Compile()
}

// TestDeadlineComposesWithTimeLimit pins the composition contract end to
// end: whichever of Params.TimeLimit and the context deadline is tighter
// bounds the solve, and both report StatusTimeLimit.
func TestDeadlineComposesWithTimeLimit(t *testing.T) {
	run := func(ctx context.Context, limit time.Duration) (*Result, time.Duration) {
		start := time.Now()
		res, err := Solve(ctx, hardKnapsack(7), Params{TimeLimit: limit, GapTol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(start)
	}

	// Context deadline tighter than the configured limit.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, elapsed := run(ctx, time.Minute)
	if res.Status != StatusTimeLimit {
		t.Errorf("deadline-governed: status %v, want %v", res.Status, StatusTimeLimit)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline-governed solve ran %v, deadline was 50ms", elapsed)
	}

	// Configured limit tighter than the context deadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	res2, elapsed2 := run(ctx2, 50*time.Millisecond)
	if res2.Status != StatusTimeLimit {
		t.Errorf("limit-governed: status %v, want %v", res2.Status, StatusTimeLimit)
	}
	if elapsed2 > 5*time.Second {
		t.Errorf("limit-governed solve ran %v, limit was 50ms", elapsed2)
	}
}

func TestCancellationMidSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Solve(ctx, hardKnapsack(9), Params{GapTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCanceled && res.Status != StatusOptimal {
		t.Errorf("status = %v, want canceled (or optimal if the solve won the race)", res.Status)
	}
	if res.Status == StatusCanceled {
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation took %v to unwind", elapsed)
		}
		// The bound must stay valid on the partial search.
		if res.HasIncumbent && res.Obj < res.Bound-1e-6 {
			t.Errorf("incumbent %g below bound %g", res.Obj, res.Bound)
		}
	}
}

func TestAlreadyEndedContext(t *testing.T) {
	// Canceled before the call: StatusCanceled, nothing solved.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, hardKnapsack(11), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCanceled || res.HasIncumbent || res.Nodes != 0 {
		t.Errorf("canceled upfront: %+v", res)
	}
	if !math.IsInf(res.Bound, -1) {
		t.Errorf("no search ran, bound should be -Inf, got %g", res.Bound)
	}

	// Expired deadline: StatusTimeLimit, however long Params.TimeLimit is.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer dcancel()
	res, err = Solve(dctx, hardKnapsack(11), Params{TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusTimeLimit || res.Nodes != 0 {
		t.Errorf("expired deadline: %+v", res)
	}
}
