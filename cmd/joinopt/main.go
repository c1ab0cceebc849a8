// Command joinopt optimizes a join query through the public joinorder API
// and prints the resulting plan, with the anytime quality trace when the
// strategy streams one. Ctrl-C cancels the optimization context: the MILP
// strategy then returns the best plan found so far with its proven bound —
// the paper's anytime property, live.
//
// Queries come either from a JSON file (-query), SQL text (-sql with
// -catalog), or from the built-in Steinbrunn-style generator
// (-tables/-shape/-seed). Examples:
//
//	joinopt -tables 20 -shape star -precision medium -timeout 10s
//	joinopt -strategy dp-leftdeep -tables 14 -shape chain
//	joinopt -strategy hybrid -tables 120 -shape snowflake -timeout 5s
//	joinopt -query q.json -metric cout -lp model.lp
//
// Observability: -stats prints the per-phase solver statistics, -trace-events
// streams every structured solver event, -json emits one machine-readable
// document (plan, cost, bound, stats, event counts), and -metrics serves
// expvar counters plus net/http/pprof profiles over HTTP while optimizing:
//
//	joinopt -tables 20 -shape chain -stats -json
//	joinopt -tables 20 -shape star -trace-events
//	joinopt -tables 24 -shape clique -metrics localhost:6060 -timeout 60s
//
// Serving: -cache routes optimization through the fingerprint-keyed plan
// cache and -repeat re-optimizes the same query several times, so the
// first run solves and the rest hit. With -stats the cache counters and
// the per-entry table are printed after the plan:
//
//	joinopt -tables 12 -shape chain -cache -repeat 5 -stats
//
// Execution: -execute synthesizes data matching the query's statistics,
// runs the optimized plan through the streaming executor, and prints the
// estimated next to the executed cost with per-join q-errors. -feedback
// additionally re-optimizes the remaining joins mid-query whenever a
// measured cardinality misses its estimate by more than -qerror:
//
//	joinopt -tables 8 -shape chain -strategy milp -execute
//	joinopt -tables 8 -shape star -execute -feedback -qerror 2 -exec-seed 7
//
// -cache composes with -execute: the optimize leg is served through the
// plan cache, and an execution whose measured cardinalities diverge from
// the estimates feeds the corrected statistics back — the stale entry is
// invalidated and refreshed in the background, so the next -repeat run
// (or daemon request) gets a plan fit to the observed data:
//
//	joinopt -tables 8 -shape chain -cache -execute -feedback -repeat 3 -stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/qopt"
	"milpjoin/internal/sql"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
)

func main() {
	var (
		queryFile = flag.String("query", "", "JSON query file (overrides the generator flags)")
		sqlText   = flag.String("sql", "", "SQL select-project-join query (requires -catalog)")
		catFile   = flag.String("catalog", "", "JSON catalog with table statistics for -sql")
		tables    = flag.Int("tables", 10, "number of tables for the generator")
		shapeName = flag.String("shape", "star", "join graph shape: chain, cycle, star, clique, snowflake, transitive")
		seed      = flag.Int64("seed", 1, "generator seed (also drives randomized strategies)")
		strat     = flag.String("strategy", joinorder.DefaultStrategy,
			"optimization strategy: "+strings.Join(joinorder.Strategies(), ", "))
		portfolio = flag.String("portfolio", "",
			"comma-separated members for -strategy auto (default: the built-in portfolio)")
		precision = flag.String("precision", "medium", "cardinality approximation: high, medium, low")
		metric    = flag.String("metric", "hash", "cost metric: cout, hash, smj, bnl, choose")
		timeout   = flag.Duration("timeout", 30*time.Second, "optimization time budget")
		gap       = flag.Float64("gap", 1e-6, "relative MIP gap at which to stop")
		threads   = flag.Int("threads", 4, "parallel branch-and-bound workers")
		lpFile    = flag.String("lp", "", "also write the MILP in LP format to this file")
		quiet     = flag.Bool("quiet", false, "suppress the anytime trace")
		stats     = flag.Bool("stats", false, "print per-phase solver statistics after the plan")
		jsonOut   = flag.Bool("json", false, "emit one machine-readable JSON document instead of text")
		traceEv   = flag.Bool("trace-events", false, "print every solver event (with -json: embed the events in the document)")
		metrics   = flag.String("metrics", "", "serve expvar counters and pprof profiles on this HTTP address (e.g. localhost:6060)")
		cacheOn   = flag.Bool("cache", false, "route optimization through the fingerprint-keyed plan cache")
		repeat    = flag.Int("repeat", 1, "optimize the query this many times (with -cache, runs after the first hit)")
		partCap   = flag.Int("partition-cap", 0, "hybrid strategy: max tables per partition (0: the default 15; above 24 taken as 24)")
		seamFrac  = flag.Float64("seam-frac", 0, "hybrid strategy: budget fraction reserved for seam re-optimization (0: the default 0.25)")
		execute   = flag.Bool("execute", false, "synthesize matching data and run the optimized plan through the streaming executor")
		execSeed  = flag.Int64("exec-seed", 1, "data synthesis seed for -execute")
		feedback  = flag.Bool("feedback", false, "with -execute: re-optimize remaining joins mid-query on misestimates")
		qerror    = flag.Float64("qerror", 0, "with -feedback: per-join q-error threshold that triggers re-optimization (0: the default 2)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags]\n\nflags:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nstrategies:\n")
		for _, name := range joinorder.Strategies() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", name, joinorder.Describe(name))
		}
	}
	flag.Parse()

	// Ctrl-C cancels the context; the solver stack unwinds promptly and
	// anytime strategies still report their best incumbent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	q, err := loadQuery(*queryFile, *sqlText, *catFile, *shapeName, *tables, *seed, *execute)
	if err != nil {
		fatal(err)
	}
	opts, err := joinorder.CostModel(*precision, *metric)
	if err != nil {
		fatal(err)
	}
	opts.Strategy = *strat
	opts.Budget = joinorder.Budget{TimeLimit: *timeout, GapTol: *gap, Threads: *threads}
	opts.Seed = *seed
	opts.PartitionCap = *partCap
	opts.SeamBudgetFrac = *seamFrac
	if *portfolio != "" {
		opts.Portfolio = strings.Split(*portfolio, ",")
	}

	// Event counters back both the JSON document and the expvar endpoint.
	// The solver serialises event callbacks, so no extra locking is needed.
	eventCounts := make(map[string]int)
	var events []joinorder.Event
	var evMap *expvar.Map
	if *metrics != "" {
		evMap = expvar.NewMap("joinopt_events")
		go func() {
			if err := http.ListenAndServe(*metrics, nil); err != nil {
				fmt.Fprintln(os.Stderr, "joinopt: metrics endpoint:", err)
			}
		}()
		if !*jsonOut {
			fmt.Printf("metrics: http://%s/debug/vars (expvar), /debug/pprof (profiles)\n", *metrics)
		}
	}
	opts.OnEvent = func(ev joinorder.Event) {
		eventCounts[ev.Kind.String()]++
		if evMap != nil {
			evMap.Add(ev.Kind.String(), 1)
		}
		if *jsonOut {
			if *traceEv {
				events = append(events, ev)
			}
			return
		}
		switch {
		case *traceEv:
			fmt.Println("  " + ev.String())
		case !*quiet && (ev.Kind == joinorder.KindIncumbent || ev.Kind == joinorder.KindBound):
			inc := "-"
			if ev.HasIncumbent {
				inc = fmt.Sprintf("%.6g", ev.Incumbent)
			}
			fmt.Printf("  t=%-8s incumbent=%-14s bound=%-14.6g gap=%.3f nodes=%d\n",
				ev.Elapsed.Truncate(time.Millisecond), inc, ev.Bound, ev.Gap, ev.Nodes)
		}
	}

	if *lpFile != "" {
		if err := writeLP(*lpFile, q, opts); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("wrote %s\n", *lpFile)
		}
	}

	if !*jsonOut {
		fmt.Printf("optimizing %d tables, %d predicates (%s strategy, %s metric, %s precision)\n",
			q.NumTables(), len(q.Predicates), *strat, *metric, *precision)
	}
	var co *cache.Optimizer
	if *cacheOn {
		var err error
		if co, err = cache.New(cache.Config{}); err != nil {
			fatal(err)
		}
	}
	if *execute {
		eo := joinorder.ExecOptions{
			DataSeed:        *execSeed,
			Feedback:        *feedback,
			QErrorThreshold: *qerror,
		}
		for run := 0; run < max(*repeat, 1); run++ {
			if err := runExecuted(ctx, os.Stdout, co, q, opts, eo, *jsonOut); err != nil {
				if errors.Is(err, joinorder.ErrCanceled) || errors.Is(err, joinorder.ErrNoPlan) {
					fmt.Fprintf(os.Stderr, "joinopt: no executed plan within the budget (%v)\n", err)
					os.Exit(2)
				}
				fatal(err)
			}
		}
		if co != nil {
			// Let a corrected-cardinality refresh land before reporting.
			co.Wait()
			if *stats {
				printCacheStats(co)
			}
		}
		return
	}
	if *repeat < 1 {
		fatal(fmt.Errorf("-repeat must be at least 1"))
	}

	var res *joinorder.Result
	start := time.Now()
	for run := 0; run < *repeat; run++ {
		runStart := time.Now()
		var err error
		if co != nil {
			res, err = co.Optimize(ctx, q, opts)
		} else {
			res, err = joinorder.Optimize(ctx, q, opts)
		}
		switch {
		case errors.Is(err, joinorder.ErrCanceled), errors.Is(err, joinorder.ErrNoPlan):
			if *jsonOut {
				json.NewEncoder(os.Stdout).Encode(map[string]any{"error": err.Error()})
			} else {
				fmt.Printf("no plan found within the budget (%v)\n", err)
			}
			os.Exit(2)
		case err != nil:
			fatal(err)
		}
		if !*jsonOut && *repeat > 1 {
			fmt.Printf("run %d/%d: %v cost=%.6g in %v\n", run+1, *repeat,
				res.Status, res.Cost, time.Since(runStart).Truncate(time.Microsecond))
		}
	}

	if *jsonOut {
		if err := printJSON(os.Stdout, q, res, *strat, *metric, *precision, eventCounts, events, co); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("status: %v after %v", res.Status, time.Since(start).Truncate(time.Millisecond))
	if res.Nodes > 0 {
		fmt.Printf(" (%d nodes)", res.Nodes)
	}
	fmt.Println()
	if res.Winner != "" {
		fmt.Printf("winner:     %s\n", res.Winner)
	}
	switch {
	case res.Plan != nil:
		fmt.Printf("plan:       %s\n", res.Plan)
		if res.Plan.Operators != nil {
			ops := make([]string, len(res.Plan.Operators))
			for i, op := range res.Plan.Operators {
				ops[i] = op.String()
			}
			fmt.Printf("operators:  %s\n", strings.Join(ops, ", "))
		}
	case res.Tree != nil:
		fmt.Printf("tree:       %s\n", res.Tree)
	}
	fmt.Printf("exact cost: %.6g\n", res.Cost)
	if !math.IsInf(res.Bound, -1) { // strategy proves a lower bound
		fmt.Printf("objective:  %.6g (bound %.6g, gap %.4f)\n", res.Objective, res.Bound, res.Gap)
	}
	if *stats && res.Stats != nil {
		fmt.Println("solver statistics:")
		for _, line := range strings.Split(res.Stats.String(), "\n") {
			fmt.Println("  " + line)
		}
	}
	if *stats && co != nil {
		printCacheStats(co)
	}
}

// runExecuted is the -execute path: optimize, synthesize data matching
// the query's statistics, run the plan through the streaming executor,
// and report the estimated next to the executed cost per join. With
// -cache the optimize leg goes through the plan cache, and executions
// whose measured cardinalities diverge feed corrected statistics back
// into it (invalidate + background refresh).
func runExecuted(ctx context.Context, w io.Writer, co *cache.Optimizer, q *qopt.Query, opts joinorder.Options, eo joinorder.ExecOptions, jsonOut bool) error {
	var ex *joinorder.Execution
	var err error
	if co != nil {
		ex, err = co.OptimizeExecuted(ctx, q, opts, eo)
	} else {
		ex, err = joinorder.OptimizeExecuted(ctx, q, opts, eo)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"result":    ex.Result,
			"execution": ex,
		})
	}
	res := ex.Result
	fmt.Fprintf(w, "status: %v after %v\n", res.Status, res.Elapsed.Truncate(time.Millisecond))
	switch {
	case res.Plan != nil:
		fmt.Fprintf(w, "plan:       %s\n", res.Plan)
	case res.Tree != nil:
		fmt.Fprintf(w, "tree:       %s\n", res.Tree)
	}
	fmt.Fprintln(w, "execution:")
	for _, j := range ex.Joins {
		fmt.Fprintf(w, "  join %-16v est %-12.6g measured %-10g q-error %.3g\n",
			j.Tables, j.Estimated, j.Measured, j.QError)
	}
	fmt.Fprintf(w, "estimated C_out: %.6g\n", ex.EstimatedCout)
	fmt.Fprintf(w, "executed C_out:  %.6g\n", ex.ExecutedCout)
	fmt.Fprintf(w, "max q-error:     %.3g\n", ex.MaxQError)
	fmt.Fprintf(w, "result rows:     %d\n", ex.ResultRows)
	if eo.Feedback {
		fmt.Fprintf(w, "re-optimizations: %d\n", ex.Reoptimizations)
	}
	return nil
}

// printCacheStats renders the cache counters and the per-entry table of
// -cache -stats mode, hottest entries first.
func printCacheStats(co *cache.Optimizer) {
	cs := co.Stats()
	fmt.Println("cache statistics:")
	fmt.Printf("  hits=%d misses=%d coalesced=%d hit-rate=%.2f\n",
		cs.Hits, cs.Misses, cs.Coalesced, cs.HitRate())
	fmt.Printf("  warm-starts=%d accepted=%d degraded=%d refines=%d uncacheable=%d\n",
		cs.WarmStarts, cs.WarmStartAccepted, cs.Degraded, cs.Refines, cs.Uncacheable)
	fmt.Printf("  entries=%d donors=%d evicted=%d expired=%d\n",
		cs.Entries, cs.Donors, cs.Evicted, cs.Expired)
	entries := co.Entries()
	cache.SortEntries(entries)
	for _, e := range entries {
		key := e.Key
		if len(key) > 40 {
			key = key[:40] + "…"
		}
		fmt.Printf("  entry %-42s hits=%-4d tables=%-3d cost=%-12.6g age=%v\n",
			key, e.Hits, e.Tables, e.Cost, e.Age.Truncate(time.Millisecond))
	}
}

// printJSON emits the one machine-readable document of -json mode: query
// shape, the full result (plan, cost, bound, per-phase stats), and the
// event-kind counts — plus the raw event stream under -trace-events.
func printJSON(w io.Writer, q *qopt.Query, res *joinorder.Result, strat, metric, precision string,
	eventCounts map[string]int, events []joinorder.Event, co *cache.Optimizer) error {
	doc := map[string]any{
		"query": map[string]any{
			"tables":     q.NumTables(),
			"predicates": len(q.Predicates),
			"strategy":   strat,
			"metric":     metric,
			"precision":  precision,
		},
		"result": res,
	}
	if len(eventCounts) > 0 {
		doc["event_counts"] = eventCounts
	}
	if events != nil {
		doc["events"] = events
	}
	if co != nil {
		// Background refines from degraded serving land before the
		// snapshot, so the document is self-contained: counters plus the
		// per-entry table, hottest first — no second -stats run needed.
		co.Wait()
		doc["cache"] = co.Stats()
		entries := co.Entries()
		cache.SortEntries(entries)
		doc["cache_entries"] = entries
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writeLP encodes the query with the MILP encoder and writes the model in
// LP text format — inspection tooling on top of the public options.
func writeLP(path string, q *qopt.Query, opts joinorder.Options) error {
	enc, err := core.Encode(q, core.Options{
		Precision:       opts.Precision,
		CardCap:         opts.CardCap,
		Metric:          opts.Metric,
		Op:              opts.Op,
		ChooseOperators: opts.ChooseOperators,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc.Model.WriteLP(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadQuery(file, sqlText, catFile, shapeName string, tables int, seed int64, execute bool) (*qopt.Query, error) {
	if sqlText != "" {
		if catFile == "" {
			return nil, fmt.Errorf("-sql requires -catalog")
		}
		data, err := os.ReadFile(catFile)
		if err != nil {
			return nil, err
		}
		cat := sql.NewCatalog()
		if err := json.Unmarshal(data, &cat.Tables); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", catFile, err)
		}
		stmt, err := sql.Parse(sqlText)
		if err != nil {
			return nil, err
		}
		q, _, err := cat.Translate(stmt)
		return q, err
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var q qopt.Query
		if err := json.Unmarshal(data, &q); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		return &q, q.Validate()
	}
	shape, err := parseShape(shapeName)
	if err != nil {
		return nil, err
	}
	cfg := workload.Config{}
	if execute {
		// The plan will actually run: keep tables small (10…300 rows)
		// and selectivities moderate so every intermediate result stays
		// materializable. The default generator range (up to 100,000-row
		// tables) is meant for optimization benchmarks, not execution.
		cfg = workload.Config{MinLogCard: 1, MaxLogCard: 2.5, MinSel: 0.01, MaxSel: 0.5}
	}
	q := workload.Generate(shape, tables, seed, cfg)
	if execute {
		capExecutableGrowth(q)
	}
	return q, nil
}

// capExecutableGrowth clamps every binary predicate's selectivity so the
// estimated growth along its edge — selectivity times the smaller incident
// cardinality — stays at or below 2×. Without the clamp a generated chain
// can multiply by card·sel ≈ 150 at every join, and an 8-table query
// produces billions of intermediate rows; with it the worst case is 2^(n-1)
// times the largest table, which executes in milliseconds at these sizes.
func capExecutableGrowth(q *qopt.Query) {
	const maxGrowth = 2.0
	for i := range q.Predicates {
		p := &q.Predicates[i]
		if len(p.Tables) != 2 {
			continue
		}
		minCard := math.Min(q.Tables[p.Tables[0]].Card, q.Tables[p.Tables[1]].Card)
		if minCard > 0 && p.Sel*minCard > maxGrowth {
			p.Sel = maxGrowth / minCard
		}
	}
}

func parseShape(s string) (workload.GraphShape, error) {
	switch s {
	case "chain":
		return workload.Chain, nil
	case "cycle":
		return workload.Cycle, nil
	case "star":
		return workload.Star, nil
	case "clique":
		return workload.Clique, nil
	case "snowflake":
		return workload.Snowflake, nil
	case "transitive":
		return workload.Transitive, nil
	default:
		return 0, fmt.Errorf("unknown shape %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joinopt:", err)
	os.Exit(1)
}
