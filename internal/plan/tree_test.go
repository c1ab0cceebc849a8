package plan

import (
	"fmt"
	"math"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

func TestTreeBasics(t *testing.T) {
	tr := Join(Join(Leaf(0), Leaf(1)), Leaf(2))
	if tr.IsLeaf() || !Leaf(3).IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	tables := tr.Tables(nil)
	if len(tables) != 3 || tables[0] != 0 || tables[1] != 1 || tables[2] != 2 {
		t.Errorf("Tables = %v", tables)
	}
	if got := tr.String(); got != "((T0 ⋈ T1) ⋈ T2)" {
		t.Errorf("String = %q", got)
	}
}

func TestTreeValidate(t *testing.T) {
	q := paperQuery()
	good := Join(Join(Leaf(0), Leaf(1)), Leaf(2))
	if err := good.Validate(q); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	for name, tr := range map[string]*Tree{
		"missing":   Join(Leaf(0), Leaf(1)),
		"duplicate": Join(Join(Leaf(0), Leaf(0)), Leaf(2)),
		"unknown":   Join(Join(Leaf(0), Leaf(1)), Leaf(9)),
	} {
		if err := tr.Validate(q); err == nil {
			t.Errorf("%s: invalid tree accepted", name)
		}
	}
}

func TestLeftDeepConversionMatchesPlanCost(t *testing.T) {
	q := paperQuery()
	p := &Plan{Order: []int{0, 1, 2}}
	tr := p.LeftDeep()
	if tr.String() != "((T0 ⋈ T1) ⋈ T2)" {
		t.Fatalf("LeftDeep = %s", tr)
	}
	for _, spec := range []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()} {
		pc, err := Cost(q, p, spec)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := TreeCost(q, tr, spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pc-tc) > 1e-9*(1+pc) {
			t.Errorf("%v: plan cost %g vs tree cost %g", spec.Metric, pc, tc)
		}
	}
}

func TestBushyTreeCoutHandComputed(t *testing.T) {
	// Four tables, no predicates: ((T0 ⋈ T1) ⋈ (T2 ⋈ T3)).
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 10}, {Card: 20}, {Card: 5}, {Card: 8}},
	}
	tr := Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3)))
	// Intermediates: 200 and 40; root excluded → C_out = 240.
	c, err := TreeCost(q, tr, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c != 240 {
		t.Errorf("Cout = %g, want 240", c)
	}
}

func TestBushyTreeWithCorrelationGroups(t *testing.T) {
	q := paperQuery()
	q.Predicates = append(q.Predicates, qopt.Predicate{Tables: []int{1, 2}, Sel: 0.1})
	q.Correlated = []qopt.CorrelatedGroup{{Predicates: []int{0, 1}, CorrectionSel: 5}}
	tr := Join(Join(Leaf(0), Leaf(1)), Leaf(2))
	// Root card must match the left-deep coster's FinalCard.
	eval, err := Evaluate(q, &Plan{Order: []int{0, 1, 2}}, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := SubsetCard(q, tr.Tables(nil)); math.Abs(got-eval.FinalCard) > 1e-9*eval.FinalCard {
		t.Errorf("SubsetCard = %g, want %g", got, eval.FinalCard)
	}
}

// TestSubsetCardDeterministic: the streaming executor picks a join's build
// side by comparing two SubsetCard values, so the same set must give the
// same float64 on every call, whatever order its tables are listed in.
func TestSubsetCardDeterministic(t *testing.T) {
	q := &qopt.Query{}
	for _, c := range []float64{12345.678, 98765.4321, 23456.789, 87654.321, 34567.891, 76543.219, 45678.912} {
		q.Tables = append(q.Tables, qopt.Table{Card: c})
	}
	q.Predicates = []qopt.Predicate{{Tables: []int{0, 6}, Sel: 0.0123}, {Tables: []int{3}, Sel: 0.3}}
	tables := []int{0, 1, 2, 3, 4, 5, 6}
	want := math.Float64bits(SubsetCard(q, tables))
	for i := 0; i < 2000; i++ {
		tables[i%7], tables[(i*3+1)%7] = tables[(i*3+1)%7], tables[i%7]
		if got := math.Float64bits(SubsetCard(q, tables)); got != want {
			t.Fatalf("call %d (%v): %x, want %x", i, tables, got, want)
		}
	}
}

func TestLeftDeepPlan(t *testing.T) {
	leftDeep := Join(Join(Leaf(2), Leaf(0)), Leaf(1))
	zigzag := Join(Leaf(3), Join(Join(Leaf(2), Leaf(0)), Leaf(1))) // left leaf at the root
	bushy := Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3)))
	for _, tc := range []struct {
		name   string
		tree   *Tree
		metric cost.Metric
		want   []int // nil: no cost-equivalent left-deep plan
	}{
		{"left-deep/C_out", leftDeep, cost.Cout, []int{2, 0, 1}},
		{"left-deep/operator", leftDeep, cost.OperatorCost, []int{2, 0, 1}},
		{"zigzag/C_out", zigzag, cost.Cout, []int{2, 0, 1, 3}},
		{"zigzag/operator", zigzag, cost.OperatorCost, nil},
		{"bushy/C_out", bushy, cost.Cout, nil},
		{"bushy/operator", bushy, cost.OperatorCost, nil},
		{"nil", nil, cost.Cout, nil},
	} {
		got := tc.tree.LeftDeepPlan(tc.metric)
		switch {
		case tc.want == nil && got != nil:
			t.Errorf("%s: flattened to %v, want nil", tc.name, got.Order)
		case tc.want != nil && (got == nil || fmt.Sprint(got.Order) != fmt.Sprint(tc.want)):
			t.Errorf("%s: flattened to %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEmptyPlanLeftDeep(t *testing.T) {
	if (&Plan{}).LeftDeep() != nil {
		t.Error("empty plan should convert to nil tree")
	}
}
