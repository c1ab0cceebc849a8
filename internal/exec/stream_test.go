package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// randomBushyTree builds a random (generally bushy) join tree over n
// tables by repeatedly merging two random members of a forest.
func randomBushyTree(n int, rng *rand.Rand) *plan.Tree {
	forest := make([]*plan.Tree, n)
	for i := range forest {
		forest[i] = plan.Leaf(i)
	}
	for len(forest) > 1 {
		i := rng.Intn(len(forest))
		j := rng.Intn(len(forest) - 1)
		if j >= i {
			j++
		}
		merged := plan.Join(forest[i], forest[j])
		if i > j {
			i, j = j, i
		}
		forest[j] = forest[len(forest)-1]
		forest = forest[:len(forest)-1]
		forest[i] = merged
	}
	return forest[0]
}

func streamFingerprint(t *testing.T, db *Database, tree *plan.Tree, o StreamOptions) (uint64, *Trace) {
	t.Helper()
	run, err := db.Stream(tree, o)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := run.Collect()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := rel.Fingerprint(allColumns(db))
	if err != nil {
		t.Fatal(err)
	}
	return fp, run.Trace
}

func oracleFingerprint(t *testing.T, db *Database, tree *plan.Tree) uint64 {
	t.Helper()
	rel, _, err := db.executeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := rel.Fingerprint(allColumns(db))
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestStreamMatchesOracleOnRandomBushyTrees(t *testing.T) {
	for _, shape := range workload.Shapes() {
		for n := 4; n <= 6; n++ {
			q := smallQuery(shape, n, int64(10*n))
			db, err := Synthesize(q, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100*n) + int64(shape)))
			for trial := 0; trial < 4; trial++ {
				tree := randomBushyTree(n, rng)
				want := oracleFingerprint(t, db, tree)
				got, trace := streamFingerprint(t, db, tree, StreamOptions{})
				if got != want {
					t.Fatalf("%v n=%d trial=%d: streaming result differs from materializing oracle (tree %v)",
						shape, n, trial, tree)
				}
				if len(trace.Joins) != n-1 {
					t.Fatalf("%v n=%d: %d join trace entries, want %d", shape, n, len(trace.Joins), n-1)
				}
			}
		}
	}
}

func TestStreamTraceMeasuredMatchesOracle(t *testing.T) {
	for _, shape := range workload.Shapes() {
		q := smallQuery(shape, 5, 21)
		db, err := Synthesize(q, 22)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 5; trial++ {
			tree := randomBushyTree(5, rng)
			_, joins, err := db.executeTree(tree)
			if err != nil {
				t.Fatal(err)
			}
			_, trace := streamFingerprint(t, db, tree, StreamOptions{})
			if len(joins) != len(trace.Joins) {
				t.Fatalf("%v: %d trace joins, oracle ran %d", shape, len(trace.Joins), len(joins))
			}
			for i, jt := range trace.Joins {
				if got, want := fmt.Sprint(jt.Tables), fmt.Sprint(joins[i].tables); got != want {
					t.Errorf("%v: trace join %d covers %s, oracle's covers %s", shape, i, got, want)
				}
				if int(jt.Measured) != joins[i].rows {
					t.Errorf("%v: join %v measured %g rows, oracle %d", shape, jt.Tables, jt.Measured, joins[i].rows)
				}
				if jt.Estimated <= 0 {
					t.Errorf("%v: join %v estimate %g, want > 0", shape, jt.Tables, jt.Estimated)
				}
			}
			root := trace.Joins[len(trace.Joins)-1]
			if int(root.Measured) != trace.ResultRows {
				t.Errorf("%v: root measured %g != result rows %d", shape, root.Measured, trace.ResultRows)
			}
		}
	}
}

func TestStreamRootEstimateIsSubsetCard(t *testing.T) {
	q := smallQuery(workload.Chain, 4, 31)
	db, err := Synthesize(q, 32)
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3)))
	_, trace := streamFingerprint(t, db, tree, StreamOptions{})
	root := trace.Joins[len(trace.Joins)-1]
	want := plan.SubsetCard(q, []int{0, 1, 2, 3})
	if root.Estimated != want {
		t.Errorf("root estimate %g, want SubsetCard %g", root.Estimated, want)
	}
	left := trace.Joins[0]
	if got, want := fmt.Sprint(left.Tables), fmt.Sprint([]int{0, 1}); got != want {
		t.Errorf("first trace join covers %s, want %s", got, want)
	}
	if left.Estimated != plan.SubsetCard(q, []int{0, 1}) {
		t.Errorf("left estimate %g, want %g", left.Estimated, plan.SubsetCard(q, []int{0, 1}))
	}
}

func TestUnaryPredicatePushdown(t *testing.T) {
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 200}, {Card: 100}, {Card: 50}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.05},
			{Tables: []int{1, 2}, Sel: 0.05},
			{Tables: []int{1}, Sel: 0.25},
		},
	}
	db, err := Synthesize(q, 41)
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))
	want := oracleFingerprint(t, db, tree)
	got, trace := streamFingerprint(t, db, tree, StreamOptions{})
	if got != want {
		t.Fatal("streaming result differs from oracle under unary predicate")
	}
	var sc *ScanTrace
	for _, s := range trace.Scans {
		if s.Table == 1 {
			sc = s
		}
	}
	if sc == nil {
		t.Fatal("no scan trace for the filtered table")
	}
	if len(sc.AppliedPreds) != 1 || sc.AppliedPreds[0] != 2 {
		t.Errorf("scan applied predicates %v, want [2]", sc.AppliedPreds)
	}
	if sc.InRows != 100 {
		t.Errorf("scan saw %d rows, want 100", sc.InRows)
	}
	if sc.OutRows >= sc.InRows {
		t.Errorf("filter kept %d of %d rows — pushdown did not filter", sc.OutRows, sc.InRows)
	}
}

func TestStreamBatchSizeInvariance(t *testing.T) {
	q := smallQuery(workload.Cycle, 5, 51)
	db, err := Synthesize(q, 52)
	if err != nil {
		t.Fatal(err)
	}
	tree := randomBushyTree(5, rand.New(rand.NewSource(53)))
	want, _ := streamFingerprint(t, db, tree, StreamOptions{})
	for _, bs := range []int{1, 3, 17, 4096} {
		got, _ := streamFingerprint(t, db, tree, StreamOptions{batchSize: bs})
		if got != want {
			t.Errorf("batch size %d changed the result", bs)
		}
	}
}

func TestDrainMatchesCollect(t *testing.T) {
	q := smallQuery(workload.Star, 4, 61)
	db, err := Synthesize(q, 62)
	if err != nil {
		t.Fatal(err)
	}
	tree := randomBushyTree(4, rand.New(rand.NewSource(63)))
	run, err := db.Stream(tree, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := run.Collect()
	if err != nil {
		t.Fatal(err)
	}
	run2, err := db.Stream(tree, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := run2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != rel.NumRows() {
		t.Errorf("drain counted %d rows, collect materialized %d", n, rel.NumRows())
	}
	if run2.Trace.ResultRows != n {
		t.Errorf("trace result rows %d, want %d", run2.Trace.ResultRows, n)
	}
}

func TestStreamRejectsMismatchedEstimateQuery(t *testing.T) {
	q := smallQuery(workload.Chain, 4, 71)
	db, err := Synthesize(q, 72)
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.Plan{Order: []int{0, 1, 2, 3}}
	bad := smallQuery(workload.Star, 4, 71) // different predicate structure
	if _, err := db.Stream(tree.LeftDeep(), StreamOptions{EstQuery: bad}); err == nil {
		t.Error("structurally different estimate query accepted")
	}
	short := smallQuery(workload.Chain, 3, 71)
	if _, err := db.Stream(tree.LeftDeep(), StreamOptions{EstQuery: short}); err == nil {
		t.Error("estimate query with fewer tables accepted")
	}
}

func TestQErrorProperties(t *testing.T) {
	cases := []struct{ est, meas, want float64 }{
		{100, 100, 1},
		{10, 1000, 100},
		{1000, 10, 100},
		{0, 0, 1},   // both floored at one row
		{0.5, 2, 2}, // estimate floored at one row
	}
	for _, c := range cases {
		if got := QError(c.est, c.meas); got != c.want {
			t.Errorf("QError(%g, %g) = %g, want %g", c.est, c.meas, got, c.want)
		}
	}
}
