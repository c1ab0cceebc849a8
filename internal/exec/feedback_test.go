package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// bestLeftDeepTree exhaustively enumerates left-deep orders and returns
// the C_out-optimal tree — a tiny self-contained optimizer, so the exec
// tests need no dependency on the joinorder package (which imports exec).
func bestLeftDeepTree(t testing.TB, q *qopt.Query) *plan.Tree {
	t.Helper()
	n := q.NumTables()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var best []int
	bestCost := math.Inf(1)
	var perm func(k int)
	perm = func(k int) {
		if k == n {
			ev, err := plan.Evaluate(q, &plan.Plan{Order: order}, cost.CoutSpec())
			if err != nil {
				t.Fatal(err)
			}
			if ev.Total < bestCost {
				bestCost = ev.Total
				best = append(best[:0], order...)
			}
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			perm(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	perm(0)
	return (&plan.Plan{Order: best}).LeftDeep()
}

// corruptedChainFixture is a 5-table chain whose first predicate's
// selectivity is wildly underestimated: the optimizer believes joining
// tables 0 and 1 first yields under one row, while the data produces
// ~20,000. The cheap recovery is to join the small tail of the chain
// first — exactly what mid-query re-optimization should discover.
func corruptedChainFixture() (truth, est *qopt.Query) {
	truth = &qopt.Query{
		Tables: []qopt.Table{{Card: 200}, {Card: 200}, {Card: 50}, {Card: 50}, {Card: 50}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.5},
			{Tables: []int{1, 2}, Sel: 0.02},
			{Tables: []int{2, 3}, Sel: 0.002},
			{Tables: []int{3, 4}, Sel: 0.002},
		},
	}
	est = &qopt.Query{
		Tables:     append([]qopt.Table(nil), truth.Tables...),
		Predicates: append([]qopt.Predicate(nil), truth.Predicates...),
	}
	est.Predicates[0].Sel = 1e-5
	return truth, est
}

func TestAdaptiveMatchesStreamWithoutFeedback(t *testing.T) {
	for _, shape := range workload.Shapes() {
		q := smallQuery(shape, 5, 81)
		db, err := Synthesize(q, 82)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(83))
		for trial := 0; trial < 3; trial++ {
			tree := randomBushyTree(5, rng)
			want, wantTrace := streamFingerprint(t, db, tree, StreamOptions{})
			res, err := db.ExecuteAdaptive(context.Background(), tree, AdaptiveOptions{
				QErrorThreshold: math.Inf(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Result.Fingerprint(allColumns(db))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v trial %d: adaptive result differs from streaming", shape, trial)
			}
			if res.Reopts != 0 {
				t.Errorf("%v: %d re-optimizations with an infinite threshold", shape, res.Reopts)
			}
			// Same tree, stage-at-a-time: the intermediate results are
			// identical, so measured C_out must agree exactly.
			if res.Trace.MeasuredCout() != wantTrace.MeasuredCout() {
				t.Errorf("%v: adaptive measured C_out %g, streaming %g",
					shape, res.Trace.MeasuredCout(), wantTrace.MeasuredCout())
			}
			if len(res.Trace.Joins) != 4 {
				t.Errorf("%v: %d join trace entries, want 4", shape, len(res.Trace.Joins))
			}
			checkPinnedAnswer(t, fmt.Sprintf("%v/%d", shape, trial), res)
		}
	}
}

func TestAdaptiveReoptimizationImprovesExecutedCost(t *testing.T) {
	truth, est := corruptedChainFixture()
	db, err := Synthesize(truth, 91)
	if err != nil {
		t.Fatal(err)
	}
	// The plan an optimizer trusting the corrupted estimate picks.
	tree := bestLeftDeepTree(t, est)

	// Baseline: run that plan end to end, no feedback.
	_, noFB := streamFingerprint(t, db, tree, StreamOptions{EstQuery: est})

	// Feedback: same plan, re-optimizing the remainder when a join's
	// measured cardinality misses its estimate.
	res, err := db.ExecuteAdaptive(context.Background(), tree, AdaptiveOptions{
		EstQuery:        est,
		QErrorThreshold: 2,
		Reoptimize: func(_ context.Context, rem *qopt.Query) (*plan.Tree, error) {
			return bestLeftDeepTree(t, rem), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts < 1 {
		t.Fatalf("no re-optimization despite a %g max q-error", res.Trace.MaxQError())
	}
	fb, base := res.Trace.MeasuredCout(), noFB.MeasuredCout()
	if fb >= base*0.8 {
		t.Errorf("feedback executed C_out %g, baseline %g — re-optimization did not help", fb, base)
	}
	// The correction recovered the true selectivity of the corrupted
	// predicate from the measured join size.
	got, ok := res.Corrections.PredSel[0]
	if !ok {
		t.Fatal("no correction recorded for the corrupted predicate")
	}
	if got < 0.2 || got > 1 {
		t.Errorf("corrected selectivity %g, true value 0.5", got)
	}
	if res.CorrectedQuery.Predicates[0].Sel != got {
		t.Errorf("corrected query carries sel %g, corrections say %g",
			res.CorrectedQuery.Predicates[0].Sel, got)
	}
	checkPinnedAnswer(t, "corrupted-chain", res)
	// Correctness is untouched: same final result as the oracle.
	want := oracleFingerprint(t, db, tree)
	fp, err := res.Result.Fingerprint(allColumns(db))
	if err != nil {
		t.Fatal(err)
	}
	if fp != want {
		t.Error("adaptive execution changed the query result")
	}
}

func TestAdaptiveReoptFailureFallsBack(t *testing.T) {
	truth, est := corruptedChainFixture()
	db, err := Synthesize(truth, 92)
	if err != nil {
		t.Fatal(err)
	}
	tree := bestLeftDeepTree(t, est)
	boom := errors.New("no plan for you")
	res, err := db.ExecuteAdaptive(context.Background(), tree, AdaptiveOptions{
		EstQuery:        est,
		QErrorThreshold: 2,
		Reoptimize: func(context.Context, *qopt.Query) (*plan.Tree, error) {
			return nil, boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReoptFailures < 1 {
		t.Error("failing re-optimizer was never consulted")
	}
	if res.Reopts != 0 {
		t.Errorf("%d re-optimizations recorded despite failures", res.Reopts)
	}
	checkPinnedAnswer(t, "corrupted-chain/failing-reopt", res)
	want := oracleFingerprint(t, db, tree)
	fp, err := res.Result.Fingerprint(allColumns(db))
	if err != nil {
		t.Fatal(err)
	}
	if fp != want {
		t.Error("fallback execution changed the query result")
	}
}

func TestAdaptiveHonorsCancellation(t *testing.T) {
	q := smallQuery(workload.Chain, 5, 93)
	db, err := Synthesize(q, 94)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree := (&plan.Plan{Order: []int{0, 1, 2, 3, 4}}).LeftDeep()
	if _, err := db.ExecuteAdaptive(ctx, tree, AdaptiveOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context returned %v, want context.Canceled", err)
	}
}
