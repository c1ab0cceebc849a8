package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/workload"
)

func TestFigure1ShapesAndGrowth(t *testing.T) {
	rows, err := Figure1(Figure1Config{
		Sizes:          []int{10, 20, 30},
		QueriesPerSize: 3,
		Shape:          workload.Star,
		Metric:         cost.OperatorCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 sizes × 3 precisions
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	// Model size must grow with table count for each precision, and with
	// precision for each table count.
	byPrec := map[core.Precision][]Figure1Row{}
	for _, r := range rows {
		byPrec[r.Precision] = append(byPrec[r.Precision], r)
	}
	for prec, rs := range byPrec {
		for i := 1; i < len(rs); i++ {
			if rs[i].MedianVars <= rs[i-1].MedianVars {
				t.Errorf("%v: vars not growing with tables: %d → %d", prec, rs[i-1].MedianVars, rs[i].MedianVars)
			}
			if rs[i].MedianConstrs <= rs[i-1].MedianConstrs {
				t.Errorf("%v: constraints not growing with tables", prec)
			}
		}
	}
	for i := 0; i < len(rows); i += 3 {
		high, med, low := rows[i], rows[i+1], rows[i+2]
		if !(high.MedianVars > med.MedianVars && med.MedianVars > low.MedianVars) {
			t.Errorf("tables=%d: precision ordering violated: %d / %d / %d",
				high.Tables, high.MedianVars, med.MedianVars, low.MedianVars)
		}
	}
}

func TestFigure1MatchesTheorem(t *testing.T) {
	rows, err := Figure1(Figure1Config{
		Sizes:          []int{10, 40},
		QueriesPerSize: 2,
		Shape:          workload.Star,
		Metric:         cost.OperatorCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		n := r.Tables
		m := n - 1 // star graph predicates
		bound := 4 * n * (n + m + r.Thresholds)
		if r.MedianVars > bound {
			t.Errorf("n=%d %v: %d vars above O(n(n+m+l)) bound %d", n, r.Precision, r.MedianVars, bound)
		}
		if r.MedianConstrs > 6*n*(n+m+r.Thresholds) {
			t.Errorf("n=%d %v: %d constraints above bound", n, r.Precision, r.MedianConstrs)
		}
	}
}

func smallFigure2Config() Figure2Config {
	return Figure2Config{
		Shapes:         []workload.GraphShape{workload.Star},
		Sizes:          []int{6},
		QueriesPerCell: 2,
		Timeout:        2 * time.Second,
		Samples:        4,
		Precisions:     []core.Precision{core.PrecisionMedium},
		Threads:        2,
		Metric:         cost.OperatorCost,
	}
}

func TestFigure2SmallGrid(t *testing.T) {
	cells, err := Figure2(context.Background(), smallFigure2Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	cell := cells[0]
	if len(cell.Times) != 4 {
		t.Fatalf("times = %v", cell.Times)
	}
	dpSeries, ok := cell.Series[DPName]
	if !ok {
		t.Fatal("missing DP series")
	}
	milpSeries, ok := cell.Series[AlgorithmName(core.PrecisionMedium)]
	if !ok {
		t.Fatal("missing MILP series")
	}
	// On 6-table queries both finish almost immediately: DP reaches
	// ratio 1 and the MILP ratio must be finite and ≥ 1 (and reach its
	// optimum, i.e. a small ratio, by the last sample).
	last := len(cell.Times) - 1
	if dpSeries[last] != 1 {
		t.Errorf("DP final ratio = %g, want 1", dpSeries[last])
	}
	if math.IsInf(milpSeries[last], 1) || milpSeries[last] < 1 {
		t.Errorf("MILP final ratio = %g", milpSeries[last])
	}
	// Ratios are monotonically non-increasing over time.
	for _, series := range cell.Series {
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1]+1e-9 {
				t.Errorf("ratio increased over time: %v", series)
			}
		}
	}
}

func TestTraceSemantics(t *testing.T) {
	tr := &Trace{}
	if !math.IsInf(tr.RatioAt(time.Second), 1) {
		t.Error("empty trace should have infinite ratio")
	}
	tr.Add(1*time.Second, 100, 50)
	tr.Add(2*time.Second, 80, 60)
	tr.Add(3*time.Second, 90, 55) // regressions must be clamped
	if got := tr.RatioAt(500 * time.Millisecond); !math.IsInf(got, 1) {
		t.Errorf("ratio before first event = %g", got)
	}
	if got := tr.RatioAt(1 * time.Second); got != 2 {
		t.Errorf("ratio at 1s = %g, want 2", got)
	}
	if got := tr.RatioAt(2 * time.Second); math.Abs(got-80.0/60.0) > 1e-12 {
		t.Errorf("ratio at 2s = %g", got)
	}
	if got := tr.RatioAt(3 * time.Second); math.Abs(got-80.0/60.0) > 1e-12 {
		t.Errorf("ratio at 3s = %g (clamping failed)", got)
	}
	// Incumbent below bound collapses to 1.
	tr2 := &Trace{}
	tr2.Add(time.Second, 10, 10)
	if got := tr2.RatioAt(time.Second); got != 1 {
		t.Errorf("optimal ratio = %g, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
	if got := median([]float64{1, math.Inf(1), math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("median with infs = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of empty should be NaN")
	}
}

func TestRenderFigure1(t *testing.T) {
	rows := []Figure1Row{
		{Tables: 10, Precision: core.PrecisionHigh, MedianVars: 100, MedianConstrs: 120, MedianNonzeros: 300, Thresholds: 25},
	}
	var sb strings.Builder
	RenderFigure1(&sb, rows)
	for _, want := range []string{"Figure 1", "high", "100", "120"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q in output", want)
		}
	}
	sb.Reset()
	RenderFigure1CSV(&sb, rows)
	if !strings.Contains(sb.String(), "10,high,100,120,300,25") {
		t.Errorf("CSV output wrong:\n%s", sb.String())
	}
}

func TestRenderFigure2(t *testing.T) {
	cell := Figure2Cell{
		Shape:  workload.Chain,
		Tables: 10,
		Times:  []time.Duration{time.Second, 2 * time.Second},
		Series: map[string][]float64{
			DPName:                           {math.Inf(1), 1},
			AlgorithmName(core.PrecisionLow): {2.5, 1.2},
		},
	}
	var sb strings.Builder
	RenderFigure2(&sb, []Figure2Cell{cell})
	out := sb.String()
	for _, want := range []string{"chain, 10 tables", "DP", "ILP (low precision)", "inf", "1.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	sb.Reset()
	RenderFigure2CSV(&sb, []Figure2Cell{cell})
	if !strings.Contains(sb.String(), "chain,10,DP,1.000,inf") {
		t.Errorf("CSV wrong:\n%s", sb.String())
	}
}

func TestFormatRatio(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1): "inf",
		1:           "1",
		1.25:        "1.25",
		12345:       "1.23e+04",
	}
	for v, want := range cases {
		if got := formatRatio(v); got != want {
			t.Errorf("formatRatio(%g) = %q, want %q", v, got, want)
		}
	}
	if formatRatio(math.NaN()) != "nan" {
		t.Error("NaN formatting")
	}
}

// TestFigure2Threads runs the small grid at one and at four solver threads
// (the figures -threads flag): either way every 6-table query is solved to
// proven optimality inside the budget, so the MILP series ends at ratio 1.
func TestFigure2Threads(t *testing.T) {
	for _, threads := range []int{1, 4} {
		cfg := smallFigure2Config()
		cfg.Threads = threads
		cells, err := Figure2(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		series := cells[0].Series[AlgorithmName(core.PrecisionMedium)]
		if last := series[len(series)-1]; math.Abs(last-1) > 1e-5 {
			t.Errorf("%d threads: final MILP ratio %g, want 1", threads, last)
		}
	}
}
