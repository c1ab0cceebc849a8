package exec

import (
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/workload"
)

// smallQuery keeps executor tests cheap: tiny cardinalities, moderate
// selectivities so intermediate results stay small.
func smallQuery(shape workload.GraphShape, n int, seed int64) *qopt.Query {
	return workload.Generate(shape, n, seed, workload.Config{
		MinLogCard: 1, MaxLogCard: 1.7, // 10 … 50 rows
		MinSel: 0.05, MaxSel: 0.3,
	})
}

func allColumns(db *Database) []string {
	var cols []string
	for _, rel := range db.Relations {
		cols = append(cols, rel.Cols...)
	}
	return cols
}

func TestSynthesizeShapes(t *testing.T) {
	q := smallQuery(workload.Chain, 4, 1)
	db, err := Synthesize(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Relations) != 4 {
		t.Fatalf("relations = %d", len(db.Relations))
	}
	for ti, rel := range db.Relations {
		if rel.NumRows() != int(q.Tables[ti].Card) {
			t.Errorf("table %d: %d rows, want %g", ti, rel.NumRows(), q.Tables[ti].Card)
		}
	}
	// Chain interior tables carry two key columns, endpoints one.
	if len(db.Relations[0].Cols) != 1 || len(db.Relations[1].Cols) != 2 {
		t.Errorf("column counts: %v / %v", db.Relations[0].Cols, db.Relations[1].Cols)
	}
}

func TestAllJoinOrdersProduceSameResult(t *testing.T) {
	for _, shape := range workload.Shapes() {
		q := smallQuery(shape, 4, 2)
		db, err := Synthesize(q, 11)
		if err != nil {
			t.Fatal(err)
		}
		cols := allColumns(db)
		var want uint64
		first := true
		for _, order := range [][]int{
			{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1},
		} {
			res, err := db.execute(&plan.Plan{Order: order})
			if err != nil {
				t.Fatalf("%v %v: %v", shape, order, err)
			}
			fp, err := res.Fingerprint(cols)
			if err != nil {
				t.Fatal(err)
			}
			if first {
				want, first = fp, false
			} else if fp != want {
				t.Fatalf("%v: order %v produced a different result multiset", shape, order)
			}
		}
	}
}

func TestCrossProductSizesExact(t *testing.T) {
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 7}, {Card: 5}, {Card: 3}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.2},
		},
	}
	db, err := Synthesize(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Join 0 ⋈ 2 first: pure cross product of 7×3 = 21 rows.
	res, err := db.execute(&plan.Plan{Order: []int{0, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Final size must equal the size of any other order.
	res2, err := db.execute(&plan.Plan{Order: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != res2.NumRows() {
		t.Errorf("row counts differ: %d vs %d", res.NumRows(), res2.NumRows())
	}
}

func TestMeasuredSizeTracksEstimate(t *testing.T) {
	// Average over several seeds: the synthesized data's final result
	// size should track the optimizer's estimate (law of large numbers
	// on uniform keys).
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 200}, {Card: 150}, {Card: 100}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.02},
			{Tables: []int{1, 2}, Sel: 0.05},
		},
	}
	eval, err := plan.Evaluate(q, &plan.Plan{Order: []int{0, 1, 2}}, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := eval.FinalCard

	var total float64
	const runs = 5
	for seed := int64(0); seed < runs; seed++ {
		db, err := Synthesize(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.execute(&plan.Plan{Order: []int{0, 1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		total += float64(res.NumRows())
	}
	got := total / runs
	if got < want/2 || got > want*2 {
		t.Errorf("measured final size %g, estimate %g (outside factor 2)", got, want)
	}
}

func TestExecuteRejectsInvalidPlan(t *testing.T) {
	q := smallQuery(workload.Chain, 3, 1)
	db, err := Synthesize(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.execute(&plan.Plan{Order: []int{0, 1}}); err == nil {
		t.Error("short plan accepted")
	}
}

func TestSynthesizeRejectsNaryPredicates(t *testing.T) {
	q := smallQuery(workload.Chain, 3, 1)
	q.Predicates = append(q.Predicates, qopt.Predicate{Tables: []int{0, 1, 2}, Sel: 0.5})
	if _, err := Synthesize(q, 1); err == nil {
		t.Error("n-ary predicate accepted")
	}
}

func TestFingerprintDetectsDifferences(t *testing.T) {
	a := &Relation{Cols: []string{"x"}, Rows: [][]int64{{1}, {2}}}
	b := &Relation{Cols: []string{"x"}, Rows: [][]int64{{2}, {1}}}
	c := &Relation{Cols: []string{"x"}, Rows: [][]int64{{1}, {3}}}
	fa, _ := a.Fingerprint([]string{"x"})
	fb, _ := b.Fingerprint([]string{"x"})
	fc, _ := c.Fingerprint([]string{"x"})
	if fa != fb {
		t.Error("row order changed the fingerprint")
	}
	if fa == fc {
		t.Error("different multisets share a fingerprint")
	}
	if _, err := a.Fingerprint([]string{"nope"}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestOptimizedPlanExecutes(t *testing.T) {
	// End-to-end: optimize with DP (exact), execute the plan, compare
	// against the canonical order's result.
	q := smallQuery(workload.Star, 5, 4)
	db, err := Synthesize(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Use the greedy plan as "optimizer output" (cheap, deterministic).
	base, err := db.execute(&plan.Plan{Order: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	cols := allColumns(db)
	want, err := base.Fingerprint(cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{4, 0, 3, 1, 2}, {2, 1, 0, 4, 3}} {
		res, err := db.execute(&plan.Plan{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Fingerprint(cols)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("order %v produced a different result", order)
		}
	}
}
