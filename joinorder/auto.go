package joinorder

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"milpjoin/internal/dp"
	"milpjoin/internal/obs"
	"milpjoin/internal/portfolio"
)

func init() {
	mustRegister("auto", "portfolio race of strategies with live incumbent injection into the MILP", optimizeAuto)
}

// DefaultPortfolio lists the members the "auto" strategy races when
// Options.Portfolio is nil: the anytime MILP (the only member with proven
// bounds, and the injection target), the pruning exact DP, the
// gradient-descent heuristic, and the instant greedy seed.
func DefaultPortfolio() []string {
	return []string{"milp", "dp-bushy", "gradient", "greedy"}
}

// portfolioMembers lists the members an "auto" run under opts races.
func portfolioMembers(opts Options) []string {
	if len(opts.Portfolio) == 0 {
		return DefaultPortfolio()
	}
	return opts.Portfolio
}

// memberOutcome is one member's terminal state in the race.
type memberOutcome struct {
	name string
	res  *Result
	err  error
}

// optimizeAuto races the portfolio members concurrently on one query over
// a shared incumbent bus: every member publishes each plan improvement
// with its exact cost, the MILP member takes the bus incumbent as a live
// MIP start at branch-and-bound node boundaries, and the pruning exact DP
// uses the bus incumbent as its cutoff. The race stops at the first
// optimality proof — a member returning StatusOptimal, or the bushy DP
// proving no plan beats the bus incumbent — which cancels the remaining
// members; the returned Result is the cheapest plan any member produced,
// with Winner naming its member.
func optimizeAuto(ctx context.Context, q *Query, opts Options) (*Result, error) {
	members := portfolioMembers(opts)
	start := time.Now()
	bus := portfolio.NewBus()
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One merged, re-sequenced event stream: member events keep their own
	// elapsed times but are renumbered race-wide, tagged with the member
	// in Event.Strategy.
	var emitter *obs.Emitter
	if opts.OnEvent != nil {
		onEvent := opts.OnEvent
		emitter = obs.NewEmitter(start, func(ev Event) { onEvent(ev) })
	}
	lifecycle := func(kind EventKind, member string) {
		if emitter == nil {
			return
		}
		_, cost, _ := bus.Best()
		bound, _ := bus.BestBound()
		emitter.Emit(Event{
			Kind:         kind,
			Worker:       -1,
			Strategy:     member,
			Incumbent:    cost,
			Bound:        bound,
			Gap:          obs.RelGap(cost, bound),
			HasIncumbent: !math.IsInf(cost, 1),
		})
	}

	// The caller's OnPlan sees every member's improvements, serialised
	// across members like the merged event stream.
	var onPlan func(PlanUpdate)
	if callerOnPlan := opts.OnPlan; callerOnPlan != nil {
		var planMu sync.Mutex
		onPlan = func(u PlanUpdate) {
			planMu.Lock()
			defer planMu.Unlock()
			callerOnPlan(u)
		}
	}
	outcomes := make(chan memberOutcome, len(members))
	var wg sync.WaitGroup
	for i, name := range members {
		mopts := opts
		mopts.Strategy = name
		mopts.Portfolio = nil
		// De-correlate the randomized members deterministically.
		mopts.Seed = opts.Seed + int64(i)
		mopts.OnPlan = onPlan
		mopts.bus = bus
		member := name
		if emitter != nil {
			mopts.OnEvent = func(ev Event) {
				ev.Strategy = member
				ev.Seq = 0 // renumbered race-wide
				emitter.Emit(ev)
			}
		}
		o, err := Lookup(member)
		if err != nil {
			outcomes <- memberOutcome{name: member, err: err}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lifecycle(KindStrategyStart, member)
			res, rerr := o.Optimize(raceCtx, q, mopts)
			if rerr == nil {
				// Built-in members publish as they improve; the final
				// plan is the MILP's only one, and a registered
				// member's only route onto the bus.
				if res.Plan != nil {
					bus.Publish(member, res.Plan, res.Cost)
				}
				if res.Status == StatusOptimal && !math.IsInf(res.Bound, 0) && res.Objective == res.Cost {
					// Exact-space proof (the DP members): the bound is
					// valid portfolio-wide. MILP bounds live in the
					// approximated objective space and stay local.
					bus.PublishBound(member, res.Bound)
				}
			}
			lifecycle(KindStrategyStop, member)
			outcomes <- memberOutcome{name: member, res: res, err: rerr}
		}()
	}

	var (
		best      *Result
		winner    string
		memberErr error
	)
	order := func(name string) int {
		for i, m := range members {
			if m == name {
				return i
			}
		}
		return len(members)
	}
	statusRank := func(s Status) int {
		switch s {
		case StatusOptimal:
			return 0
		case StatusFeasible:
			return 1
		case StatusTimeLimit:
			return 2
		default:
			return 3
		}
	}
	// better orders candidate results: cheapest exact cost first, then the
	// strongest status (a proof beats an unproven plan of equal cost),
	// then a finite lower bound (a time-limited MILP with a proven gap is
	// more informative than a heuristic's bare plan at the same cost),
	// then configured member order — keeping ties deterministic.
	better := func(res *Result, name string) bool {
		if best == nil {
			return true
		}
		if res.Cost != best.Cost {
			return res.Cost < best.Cost
		}
		if res.Status == StatusOptimal || best.Status == StatusOptimal {
			if r, b := statusRank(res.Status), statusRank(best.Status); r != b {
				return r < b
			}
		}
		if rb, bb := !math.IsInf(res.Bound, -1), !math.IsInf(best.Bound, -1); rb != bb {
			return rb
		}
		if r, b := statusRank(res.Status), statusRank(best.Status); r != b {
			return r < b
		}
		return order(name) < order(winner)
	}
	for range members {
		out := <-outcomes
		if out.err != nil {
			if errors.Is(out.err, dp.ErrNoneBetter) {
				// The pruning DP proved nothing beats the bus incumbent:
				// the racing plan is optimal over the bushy plan space.
				if pl, cost, from := bus.Best(); pl != nil {
					res := &Result{
						Strategy:  out.name,
						Status:    StatusOptimal,
						Plan:      pl,
						Tree:      pl.LeftDeep(),
						Cost:      cost,
						Objective: cost,
						Bound:     cost,
						Gap:       0,
						Elapsed:   time.Since(start),
					}
					if better(res, from) {
						best, winner = res, from
					}
					cancel()
				}
				continue
			}
			if memberErr == nil && !errors.Is(out.err, ErrCanceled) {
				memberErr = fmt.Errorf("portfolio member %q: %w", out.name, out.err)
			}
			continue
		}
		res := out.res
		if better(res, out.name) {
			best, winner = res, out.name
		}
		if res.Status == StatusOptimal {
			// First proof wins the race: cancel the peers. Anytime
			// members return their incumbents, the rest exit quickly.
			cancel()
		}
	}
	wg.Wait()

	if best == nil {
		if _, err := ended(ctx, StatusFeasible); err != nil {
			return nil, err
		}
		if memberErr != nil {
			return nil, memberErr
		}
		return nil, fmt.Errorf("%w: no portfolio member produced a plan", ErrNoPlan)
	}

	out := *best
	out.Strategy = "auto"
	out.Winner = winner
	out.Elapsed = time.Since(start)
	// The race ends like any strategy: a deadline that stopped it is a
	// time limit, whichever member's plan won.
	out.Status, _ = ended(ctx, out.Status)
	if emitter != nil {
		emitter.Emit(Event{
			Kind:         KindWinner,
			Worker:       -1,
			Strategy:     winner,
			Incumbent:    out.Cost,
			Bound:        out.Bound,
			Gap:          obs.RelGap(out.Cost, out.Bound),
			HasIncumbent: true,
			Nodes:        out.Nodes,
		})
	}
	return &out, nil
}
