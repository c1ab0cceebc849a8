package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Stats aggregate where a MILP solve spent its effort, per phase. Branch
// and bound fills them, core.Optimize adds the cut and total times and
// returns them on every core.Result, and the public API surfaces them as
// joinorder.Result.Stats. LPTime is summed across parallel workers, so
// it can exceed the wall-clock phase times on multi-threaded runs.
type Stats struct {
	// Per-phase wall-clock time.
	RootLPTime time.Duration // root LP relaxation solve
	CutTime    time.Duration // root cut generation
	SearchTime time.Duration // branch-and-bound phase (wall clock)
	TotalTime  time.Duration // whole solve, including decode glue

	// Cumulative in-phase time, summed across workers.
	LPTime time.Duration // inside node LP solves

	// Root cuts.
	CutRounds int
	CutsAdded int

	// Branch-and-bound search shape.
	Nodes          int
	PeakOpenNodes  int
	Workers        int
	NodesPerWorker []int

	// Simplex kernel effort.
	SimplexIters     int
	RootLPIters      int
	Refactorizations int // LU refactorizations across all node solves

	// Pricing behaviour across all node solves: devex reference-framework
	// resets, columns actually priced, and the columns a full-pricing rule
	// would have priced in the same passes.
	DevexResets        int
	PricingScannedCols int
	PricingTotalCols   int

	// Branching.
	PseudocostInits int // variables with initialised pseudocosts

	// HeuristicTime, HeuristicCalls and HeuristicSuccesses are always
	// zero: branch and bound runs no primal heuristic. They are neither
	// rendered nor marshalled, and stay only because the benchmark's
	// staged replay (bench/solver_trace.go) still reads them.
	HeuristicTime      time.Duration
	HeuristicCalls     int
	HeuristicSuccesses int

	// Anytime trajectory.
	Incumbents         int // incumbent improvements observed
	BoundImprovements  int // bound-improvement notifications
	InjectedIncumbents int // portfolio-peer incumbents installed mid-solve
	Events             int // events emitted to the stream
}

// PricingScanFraction is the fraction of full-pricing work the partial and
// candidate-list pricing rules actually performed (1 when nothing priced).
func (s Stats) PricingScanFraction() float64 {
	if s.PricingTotalCols == 0 {
		return 1
	}
	return float64(s.PricingScannedCols) / float64(s.PricingTotalCols)
}

// String renders a multi-line human-readable report.
func (s Stats) String() string {
	var sb strings.Builder
	d := func(v time.Duration) string { return v.Truncate(time.Microsecond).String() }
	fmt.Fprintf(&sb, "phases:     root LP %s, cuts %s, search %s (total %s)\n",
		d(s.RootLPTime), d(s.CutTime), d(s.SearchTime), d(s.TotalTime))
	fmt.Fprintf(&sb, "simplex:    %d iterations (%d at root), %d LU refactorizations, %s in node LPs\n",
		s.SimplexIters, s.RootLPIters, s.Refactorizations, d(s.LPTime))
	fmt.Fprintf(&sb, "pricing:    %d devex resets, %.1f%% of columns scanned\n",
		s.DevexResets, 100*s.PricingScanFraction())
	if s.CutRounds > 0 {
		fmt.Fprintf(&sb, "cuts:       %d rounds, %d added\n", s.CutRounds, s.CutsAdded)
	}
	fmt.Fprintf(&sb, "search:     %d nodes, peak %d open, %d workers", s.Nodes, s.PeakOpenNodes, s.Workers)
	if len(s.NodesPerWorker) > 0 {
		fmt.Fprintf(&sb, " %v", s.NodesPerWorker)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "branching:  %d pseudocost initializations\n", s.PseudocostInits)
	fmt.Fprintf(&sb, "anytime:    %d incumbents, %d bound improvements, %d events",
		s.Incumbents, s.BoundImprovements, s.Events)
	if s.InjectedIncumbents > 0 {
		fmt.Fprintf(&sb, ", %d injected", s.InjectedIncumbents)
	}
	return sb.String()
}

// statsJSON is the wire form: durations in seconds, stable snake_case keys.
type statsJSON struct {
	RootLPSec          float64 `json:"root_lp_sec"`
	CutSec             float64 `json:"cut_sec"`
	SearchSec          float64 `json:"search_sec"`
	TotalSec           float64 `json:"total_sec"`
	LPSec              float64 `json:"lp_sec"`
	CutRounds          int     `json:"cut_rounds,omitempty"`
	CutsAdded          int     `json:"cuts_added,omitempty"`
	Nodes              int     `json:"nodes"`
	PeakOpenNodes      int     `json:"peak_open_nodes"`
	Workers            int     `json:"workers"`
	NodesPerWorker     []int   `json:"nodes_per_worker,omitempty"`
	SimplexIters       int     `json:"simplex_iters"`
	RootLPIters        int     `json:"root_lp_iters"`
	Refactorizations   int     `json:"lu_refactorizations"`
	DevexResets        int     `json:"devex_resets"`
	PricingScannedCols int     `json:"pricing_scanned_cols"`
	PricingTotalCols   int     `json:"pricing_total_cols"`
	PricingScanFrac    float64 `json:"pricing_scan_fraction"`
	PseudocostInits    int     `json:"pseudocost_inits"`
	Incumbents         int     `json:"incumbents"`
	BoundImprovements  int     `json:"bound_improvements"`
	InjectedIncumbents int     `json:"injected_incumbents,omitempty"`
	Events             int     `json:"events"`
}

// MarshalJSON emits the stats with durations converted to seconds.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		RootLPSec:          s.RootLPTime.Seconds(),
		CutSec:             s.CutTime.Seconds(),
		SearchSec:          s.SearchTime.Seconds(),
		TotalSec:           s.TotalTime.Seconds(),
		LPSec:              s.LPTime.Seconds(),
		CutRounds:          s.CutRounds,
		CutsAdded:          s.CutsAdded,
		Nodes:              s.Nodes,
		PeakOpenNodes:      s.PeakOpenNodes,
		Workers:            s.Workers,
		NodesPerWorker:     s.NodesPerWorker,
		SimplexIters:       s.SimplexIters,
		RootLPIters:        s.RootLPIters,
		Refactorizations:   s.Refactorizations,
		DevexResets:        s.DevexResets,
		PricingScannedCols: s.PricingScannedCols,
		PricingTotalCols:   s.PricingTotalCols,
		PricingScanFrac:    s.PricingScanFraction(),
		PseudocostInits:    s.PseudocostInits,
		Incumbents:         s.Incumbents,
		BoundImprovements:  s.BoundImprovements,
		InjectedIncumbents: s.InjectedIncumbents,
		Events:             s.Events,
	})
}
