package joinorder_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// TestDeadlineEndsEveryStrategyTheSameWay: a context deadline and
// Budget.TimeLimit are one clock. Each anytime strategy, still running when
// its clock runs out, returns its incumbent with StatusTimeLimit, whichever
// of the two set the clock.
func TestDeadlineEndsEveryStrategyTheSameWay(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		q        *joinorder.Query
		limit    time.Duration
	}{
		// Each query runs well past its limit: the MILP and the race for
		// minutes, gradient's full effort ~300 ms, hybrid's ~60 ms.
		{"milp", largeQuery(), 300 * time.Millisecond},
		{"gradient", workload.Generate(workload.Chain, 60, 1, workload.Config{}), 20 * time.Millisecond},
		{"hybrid", workload.Generate(workload.Snowflake, 120, 1, workload.Config{}), 10 * time.Millisecond},
		{"auto", largeQuery(), 300 * time.Millisecond},
	} {
		for _, clock := range []string{"context deadline", "Budget.TimeLimit"} {
			t.Run(tc.strategy+"/"+clock, func(t *testing.T) {
				ctx := context.Background()
				opts := joinorder.Options{Strategy: tc.strategy, Seed: 1, Budget: joinorder.Budget{Threads: 2}}
				if clock == "context deadline" {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.limit)
					defer cancel()
				} else {
					opts.Budget.TimeLimit = tc.limit
				}
				res, err := joinorder.Optimize(ctx, tc.q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Plan == nil {
					t.Fatal("no plan at the deadline")
				}
				if res.Status != joinorder.StatusTimeLimit {
					t.Errorf("status = %v, want %v", res.Status, joinorder.StatusTimeLimit)
				}
			})
		}
	}
}

// TestBaselinesNoPlanAtDeadlineOrCancel pins what the exact DPs, which hold no plan
// until they finish, return when stopped: ErrNoPlan when Budget.TimeLimit
// runs out, ErrCanceled when the caller's context has expired or is
// canceled, also alongside a time budget.
func TestBaselinesNoPlanAtDeadlineOrCancel(t *testing.T) {
	queries := map[string]*joinorder.Query{
		// Seconds of DP each; every limit below ends them early.
		"dp-leftdeep": workload.Generate(workload.Chain, 20, 1, workload.Config{}),
		"dp-bushy":    workload.Generate(workload.Chain, 17, 1, workload.Config{}),
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, q := range queries {
		for _, tc := range []struct {
			clock string
			ctx   func() (context.Context, context.CancelFunc)
			limit time.Duration
			want  error
		}{
			{"Budget.TimeLimit", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, time.Millisecond, joinorder.ErrNoPlan},
			{"expired context", func() (context.Context, context.CancelFunc) { return expired, func() {} }, 0, joinorder.ErrCanceled},
			{"expired context and Budget.TimeLimit", func() (context.Context, context.CancelFunc) { return expired, func() {} }, time.Hour, joinorder.ErrCanceled},
			{"canceled context", func() (context.Context, context.CancelFunc) { return canceled, func() {} }, 0, joinorder.ErrCanceled},
			{"canceled mid-run", func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(time.Millisecond, cancel)
				return ctx, cancel
			}, time.Hour, joinorder.ErrCanceled},
		} {
			t.Run(name+"/"+tc.clock, func(t *testing.T) {
				ctx, cancel := tc.ctx()
				defer cancel()
				res, err := joinorder.Optimize(ctx, q, joinorder.Options{
					Strategy: name,
					Budget:   joinorder.Budget{TimeLimit: tc.limit},
				})
				if !errors.Is(err, tc.want) {
					t.Errorf("err = %v, want %v", err, tc.want)
				}
				if res != nil {
					t.Errorf("a result %+v alongside the error", res)
				}
			})
		}
	}
}
