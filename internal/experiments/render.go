package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// RenderFigure1 writes the Figure 1 census as a text table.
func RenderFigure1(w io.Writer, rows []Figure1Row) {
	fmt.Fprintln(w, "Figure 1 — MILP size per query (median over random queries)")
	fmt.Fprintf(w, "%-8s %-10s %12s %12s %12s %12s\n",
		"tables", "precision", "variables", "constraints", "nonzeros", "thresholds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-10s %12d %12d %12d %12d\n",
			r.Tables, r.Precision, r.MedianVars, r.MedianConstrs, r.MedianNonzeros, r.Thresholds)
	}
}

// RenderFigure1CSV writes the census as CSV.
func RenderFigure1CSV(w io.Writer, rows []Figure1Row) {
	fmt.Fprintln(w, "tables,precision,median_vars,median_constraints,median_nonzeros,thresholds")
	for _, r := range rows {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n",
			r.Tables, r.Precision, r.MedianVars, r.MedianConstrs, r.MedianNonzeros, r.Thresholds)
	}
}

// RenderFigure2 writes one Figure 2 cell per block: for every algorithm the
// median Cost/LB ratio at each sample time ("inf" meaning no plan yet —
// exactly the paper's criterion for DP before it finishes).
func RenderFigure2(w io.Writer, cells []Figure2Cell) {
	for _, cell := range cells {
		fmt.Fprintf(w, "Figure 2 — %s, %d tables (median Cost/LB over time)\n", cell.Shape, cell.Tables)
		fmt.Fprintf(w, "%-24s", "t")
		for _, tm := range cell.Times {
			fmt.Fprintf(w, "%10s", tm.Truncate(tm/100+1).String())
		}
		fmt.Fprintln(w)
		for _, name := range sortedSeriesNames(cell) {
			fmt.Fprintf(w, "%-24s", name)
			for _, v := range cell.Series[name] {
				fmt.Fprintf(w, "%10s", formatRatio(v))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure2CSV writes all cells as CSV rows.
func RenderFigure2CSV(w io.Writer, cells []Figure2Cell) {
	fmt.Fprintln(w, "shape,tables,algorithm,sample_seconds,median_cost_over_lb")
	for _, cell := range cells {
		for _, name := range sortedSeriesNames(cell) {
			for i, tm := range cell.Times {
				fmt.Fprintf(w, "%s,%d,%s,%.3f,%s\n",
					cell.Shape, cell.Tables, name, tm.Seconds(), formatRatio(cell.Series[name][i]))
			}
		}
	}
}

func sortedSeriesNames(cell Figure2Cell) []string {
	names := make([]string, 0, len(cell.Series))
	for name := range cell.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func formatRatio(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsNaN(v):
		return "nan"
	case v >= 100:
		return fmt.Sprintf("%.3g", v)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	}
}
