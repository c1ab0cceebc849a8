// Command figures regenerates the data behind the paper's evaluation
// figures at a configurable scale.
//
//	figures -figure 1                          # model-size census (Figure 1)
//	figures -figure 2 -sizes 10,15,20 -timeout 10s -queries 5
//	figures -figure 2 -full                    # the paper's full grid (hours)
//	figures -figure 1 -csv                     # machine-readable output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"milpjoin/internal/experiments"
)

func main() {
	var (
		figure  = flag.Int("figure", 1, "figure to regenerate: 1 or 2")
		sizes   = flag.String("sizes", "", "comma-separated table counts (default depends on figure)")
		queries = flag.Int("queries", 0, "random queries per configuration (default 20 for -figure 1, 5 for -figure 2)")
		timeout = flag.Duration("timeout", 10*time.Second, "per-query optimization budget for figure 2")
		samples = flag.Int("samples", 10, "sample points within the timeout for figure 2")
		threads = flag.Int("threads", 2, "solver threads per optimization run")
		seed    = flag.Int64("seed", 1, "workload seed")
		full    = flag.Bool("full", false, "use the paper's full configuration (sizes 10-60, 20 queries, 60s)")
		csv     = flag.Bool("csv", false, "emit CSV instead of a text table")
	)
	flag.Parse()

	sz, err := parseSizes(*sizes)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C cancels the run; in-flight optimizations unwind promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch *figure {
	case 1:
		cfg := experiments.Figure1Config{Sizes: sz, QueriesPerSize: *queries, Seed: *seed}
		if *full {
			cfg.Sizes = nil
			cfg.QueriesPerSize = 20
		}
		rows, err := experiments.Figure1(cfg)
		if err != nil {
			fatal(err)
		}
		if *csv {
			experiments.RenderFigure1CSV(os.Stdout, rows)
		} else {
			experiments.RenderFigure1(os.Stdout, rows)
		}
	case 2:
		cfg := experiments.Figure2Config{
			Sizes:          sz,
			QueriesPerCell: *queries,
			Timeout:        *timeout,
			Samples:        *samples,
			Threads:        *threads,
			Seed:           *seed,
		}
		if cfg.QueriesPerCell == 0 {
			cfg.QueriesPerCell = 5
		}
		if cfg.Sizes == nil && !*full {
			cfg.Sizes = []int{10, 15, 20}
		}
		if *full {
			cfg = experiments.Figure2Config{Seed: *seed, Threads: *threads}
		}
		eff := cfg.WithDefaults()
		perCell := time.Duration(eff.QueriesPerCell*(len(eff.Precisions)+1)) * eff.Timeout
		fmt.Fprintf(os.Stderr, "figure 2: %d cells, worst-case ~%v per cell\n",
			len(eff.Shapes)*len(eff.Sizes), perCell)
		cells, err := experiments.Figure2(ctx, cfg, func(cell experiments.Figure2Cell) {
			fmt.Fprintf(os.Stderr, "  done: %s, %d tables\n", cell.Shape, cell.Tables)
		})
		if err != nil {
			fatal(err)
		}
		if *csv {
			experiments.RenderFigure2CSV(os.Stdout, cells)
		} else {
			experiments.RenderFigure2(os.Stdout, cells)
		}
	default:
		fatal(fmt.Errorf("unknown figure %d (the paper's are 1 and 2)", *figure))
	}
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
