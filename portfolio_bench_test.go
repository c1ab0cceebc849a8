// Portfolio benchmarks: time-to-target-gap of the strategy=auto race
// against every fixed strategy on the paper's hard shapes, and the
// live-injection activity on the merged event stream. Written as a
// BENCH_pr6.json snapshot for CI artifacts.
package milpjoin_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// fin maps non-finite gaps (unproven runs) to -1 for the JSON snapshot.
func fin(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}

// gapPoint is one (elapsed, proven gap) sample from an event stream.
type gapPoint struct {
	elapsed time.Duration
	gap     float64
}

// gapTrace records the proven-gap trajectory of one optimize call, so a
// time-to-target can be computed after the target is known.
type gapTrace struct {
	points   []gapPoint
	injected int
}

func (tr *gapTrace) onEvent(ev joinorder.Event) {
	if ev.Kind == joinorder.KindInjected {
		tr.injected++
	}
	if ev.HasIncumbent && !math.IsInf(ev.Gap, 0) && !math.IsNaN(ev.Gap) {
		tr.points = append(tr.points, gapPoint{ev.Elapsed, ev.Gap})
	}
}

// timeTo returns the first elapsed at which the trace's proven gap reached
// target, or 0/false if it never did.
func (tr *gapTrace) timeTo(target float64) (time.Duration, bool) {
	for _, p := range tr.points {
		if p.gap <= target*(1+1e-9) {
			return p.elapsed, true
		}
	}
	return 0, false
}

// BenchmarkPortfolioAuto races strategy=auto against each fixed strategy
// on Star20 / Chain30 / Clique15 and measures time-to-target-gap, where
// the target is the best proven gap any fixed strategy reaches within the
// 2 s budget. Auto additionally runs at 0.5 s and 1 s budgets for the
// anytime profile. Acceptance (guarded here, snapshotted to
// BENCH_pr6.json): on Star20 auto reaches the target gap within 110% of
// the fastest fixed strategy's time, and the live incumbent injections
// are visible on the merged event stream.
func BenchmarkPortfolioAuto(b *testing.B) {
	type autoRun struct {
		BudgetSec   float64 `json:"budget_sec"`
		Gap         float64 `json:"gap"`
		Cost        float64 `json:"cost"`
		Winner      string  `json:"winner"`
		Injected    int     `json:"injected_incumbents"`
		TimeToTgSec float64 `json:"time_to_target_gap_sec"`
		ReachedTg   bool    `json:"reached_target_gap"`
	}
	type fixedRun struct {
		Gap         float64 `json:"gap"`
		Cost        float64 `json:"cost"`
		TimeToTgSec float64 `json:"time_to_target_gap_sec"`
		ReachedTg   bool    `json:"reached_target_gap"`
		Err         string  `json:"err,omitempty"`
	}
	type topoResult struct {
		TargetGap float64              `json:"target_gap"`
		BestFixed string               `json:"best_fixed"`
		Fixed     map[string]*fixedRun `json:"fixed"`
		Auto      []*autoRun           `json:"auto"`
	}
	type injectionRun struct {
		Query    string  `json:"query"`
		Injected int     `json:"injected_incumbents"`
		Winner   string  `json:"winner"`
		Cost     float64 `json:"cost"`
		Gap      float64 `json:"gap"`
	}
	type snapshot struct {
		Topologies      map[string]*topoResult `json:"topologies"`
		InjectionRescue *injectionRun          `json:"injection_rescue"`
	}

	const budget = 2 * time.Second
	topologies := []struct {
		name  string
		shape workload.GraphShape
		n     int
		seed  int64
	}{
		{"Star20", workload.Star, 20, 2},
		{"Chain30", workload.Chain, 30, 3},
		{"Clique15", workload.Clique, 15, 4},
	}
	strategies := []string{"milp", "dp-bushy", "gradient", "greedy"}

	baseOpts := func(limit time.Duration) joinorder.Options {
		return joinorder.Options{
			Precision: joinorder.PrecisionMedium,
			Budget:    joinorder.Budget{TimeLimit: limit, Threads: 2},
			Seed:      1,
		}
	}

	out := &snapshot{Topologies: map[string]*topoResult{}}
	for i := 0; i < b.N; i++ {
		for _, topo := range topologies {
			q := workload.Generate(topo.shape, topo.n, topo.seed, workload.Config{})
			tr := &topoResult{Fixed: map[string]*fixedRun{}}
			traces := map[string]*gapTrace{}

			// Fixed baselines at the full budget, trajectories recorded.
			for _, strat := range strategies {
				trace := &gapTrace{}
				opts := baseOpts(budget)
				opts.Strategy = strat
				opts.OnEvent = trace.onEvent
				res, err := joinorder.Optimize(context.Background(), q, opts)
				fr := &fixedRun{}
				if err != nil {
					// dp-bushy exceeds its table cap on Chain30; a member
					// that cannot run simply has no baseline.
					fr.Err = err.Error()
				} else {
					fr.Gap, fr.Cost = fin(res.Gap), res.Cost
					traces[strat] = trace
				}
				tr.Fixed[strat] = fr
			}

			// The target: best proven gap any fixed strategy reached.
			tr.TargetGap = math.Inf(1)
			for _, fr := range tr.Fixed {
				if fr.Err == "" && fr.Gap >= 0 && fr.Gap < tr.TargetGap {
					tr.TargetGap = fr.Gap
				}
			}
			bestFixedT := time.Duration(math.MaxInt64)
			for strat, trace := range traces {
				if t, ok := trace.timeTo(tr.TargetGap); ok {
					tr.Fixed[strat].TimeToTgSec = t.Seconds()
					tr.Fixed[strat].ReachedTg = true
					if t < bestFixedT {
						bestFixedT, tr.BestFixed = t, strat
					}
				}
			}

			// Auto at three budgets over the merged portfolio stream.
			for _, ab := range []time.Duration{budget / 4, budget / 2, budget} {
				trace := &gapTrace{}
				opts := baseOpts(ab)
				opts.Strategy = "auto"
				opts.OnEvent = trace.onEvent
				res, err := joinorder.Optimize(context.Background(), q, opts)
				if err != nil {
					b.Fatalf("%s auto@%v: %v", topo.name, ab, err)
				}
				ar := &autoRun{
					BudgetSec: ab.Seconds(),
					Gap:       fin(res.Gap),
					Cost:      res.Cost,
					Winner:    res.Winner,
					Injected:  trace.injected,
				}
				if t, ok := trace.timeTo(tr.TargetGap); ok {
					ar.TimeToTgSec, ar.ReachedTg = t.Seconds(), true
				}
				tr.Auto = append(tr.Auto, ar)
			}
			out.Topologies[topo.name] = tr

			if topo.name == "Star20" {
				full := tr.Auto[len(tr.Auto)-1]
				b.ReportMetric(full.TimeToTgSec, "star20-auto-t2g-s")
				b.ReportMetric(bestFixedT.Seconds(), "star20-fixed-t2g-s")
				b.ReportMetric(float64(full.Injected), "star20-injected")
				// The race is a parallelism feature: on a starved box the
				// members serialize and the comparison measures the
				// scheduler, not the portfolio. Assert the wall-clock bar
				// only when every default member can actually run
				// concurrently (the milp member alone uses 2 threads).
				assertable := runtime.GOMAXPROCS(0) >= len(joinorder.DefaultPortfolio())
				switch {
				case !full.ReachedTg:
					b.Errorf("Star20: auto never reached the target gap %.4f within %v", tr.TargetGap, budget)
				case !assertable:
					b.Logf("Star20: auto t2g %.3fs vs best fixed (%s) %.3fs; %d CPUs < %d members, wall-clock bar not asserted",
						full.TimeToTgSec, tr.BestFixed, bestFixedT.Seconds(), runtime.GOMAXPROCS(0), len(joinorder.DefaultPortfolio()))
				case tr.BestFixed != "" && full.TimeToTgSec > 1.10*bestFixedT.Seconds():
					b.Errorf("Star20: auto time-to-gap %.3fs exceeds best fixed (%s) %.3fs by more than 10%%",
						full.TimeToTgSec, tr.BestFixed, bestFixedT.Seconds())
				}
			}
		}

		// Injection visibility: seed the MILP member with a deliberately
		// bad initial plan, so a peer's early publication must rescue it
		// through the live incumbent feed. On easier fixtures the peers'
		// plans map — under the threshold approximation — to objectives no
		// better than the MILP's own greedy seed, so offers stay invisible;
		// the bad seed makes the first bus publication a strict
		// model-space improvement, installed and emitted as KindInjected.
		{
			const n = 26
			q := workload.Generate(workload.Cycle, n, 9, workload.Config{})
			trace := &gapTrace{}
			opts := baseOpts(5 * time.Second)
			opts.Strategy = "auto"
			opts.OnEvent = trace.onEvent
			opts.InitialPlan = &joinorder.Plan{Order: rand.New(rand.NewSource(99)).Perm(n)}
			res, err := joinorder.Optimize(context.Background(), q, opts)
			if err != nil {
				b.Fatalf("injection fixture: %v", err)
			}
			out.InjectionRescue = &injectionRun{
				Query:    "Cycle26",
				Injected: trace.injected,
				Winner:   res.Winner,
				Cost:     res.Cost,
				Gap:      fin(res.Gap),
			}
			b.ReportMetric(float64(trace.injected), "cycle26-injected")
			if trace.injected < 1 {
				b.Errorf("injection fixture: no KindInjected events on the merged stream (winner %s)", res.Winner)
			}
		}
	}

	for _, tr := range out.Topologies {
		tr.TargetGap = fin(tr.TargetGap)
	}
	path := os.Getenv("BENCH_PR6_OUT")
	if path == "" {
		path = "BENCH_pr6.json"
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}
