package qopt

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func validQuery() *Query {
	return &Query{
		Tables: []Table{
			{Name: "R", Card: 10},
			{Name: "S", Card: 1000},
			{Name: "T", Card: 100},
		},
		Predicates: []Predicate{
			{Name: "p0", Tables: []int{0, 1}, Sel: 0.1},
		},
	}
}

func TestValidQuery(t *testing.T) {
	if err := validQuery().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*Query){
		"one table":           func(q *Query) { q.Tables = q.Tables[:1] },
		"zero cardinality":    func(q *Query) { q.Tables[0].Card = 0 },
		"nan cardinality":     func(q *Query) { q.Tables[0].Card = math.NaN() },
		"empty predicate":     func(q *Query) { q.Predicates[0].Tables = nil },
		"unknown table":       func(q *Query) { q.Predicates[0].Tables = []int{0, 9} },
		"duplicate table":     func(q *Query) { q.Predicates[0].Tables = []int{1, 1} },
		"zero selectivity":    func(q *Query) { q.Predicates[0].Sel = 0 },
		"selectivity above 1": func(q *Query) { q.Predicates[0].Sel = 1.5 },
		"negative eval cost":  func(q *Query) { q.Predicates[0].EvalCostPerTuple = -1 },
		"tiny group":          func(q *Query) { q.Correlated = []CorrelatedGroup{{Predicates: []int{0}, CorrectionSel: 2}} },
		"group unknown pred": func(q *Query) {
			q.Correlated = []CorrelatedGroup{{Predicates: []int{0, 5}, CorrectionSel: 2}}
		},
		"group bad correction": func(q *Query) {
			q.Predicates = append(q.Predicates, Predicate{Tables: []int{1, 2}, Sel: 0.5})
			q.Correlated = []CorrelatedGroup{{Predicates: []int{0, 1}, CorrectionSel: 0}}
		},
	}
	for name, mutate := range cases {
		q := validQuery()
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestCounts(t *testing.T) {
	q := validQuery()
	if q.NumTables() != 3 || q.NumJoins() != 2 {
		t.Errorf("NumTables/NumJoins = %d/%d", q.NumTables(), q.NumJoins())
	}
}

func TestLogHelpers(t *testing.T) {
	q := validQuery()
	if got := q.LogCard(0); got != 1 {
		t.Errorf("LogCard(R) = %g, want 1", got)
	}
	if got := q.LogSel(0); math.Abs(got-(-1)) > 1e-12 {
		t.Errorf("LogSel(p0) = %g, want -1", got)
	}
	// MaxLogCard = 1 + 3 + 2 = 6.
	if got := q.MaxLogCard(); math.Abs(got-6) > 1e-12 {
		t.Errorf("MaxLogCard = %g, want 6", got)
	}
}

func TestTableName(t *testing.T) {
	q := validQuery()
	if q.TableName(0) != "R" {
		t.Errorf("TableName(0) = %q", q.TableName(0))
	}
	q.Tables[0].Name = ""
	if q.TableName(0) != "T0" {
		t.Errorf("unnamed TableName(0) = %q", q.TableName(0))
	}
}

func TestIsBinary(t *testing.T) {
	p := Predicate{Tables: []int{0, 1}}
	if !p.IsBinary() {
		t.Error("binary predicate not recognised")
	}
	u := Predicate{Tables: []int{0}}
	if u.IsBinary() {
		t.Error("unary predicate claimed binary")
	}
}

func TestQueryJSONRoundTrip(t *testing.T) {
	q := validQuery()
	q.Tables[0].Sorted = true
	q.Predicates[0].EvalCostPerTuple = 2.5
	q.Correlated = []CorrelatedGroup{}

	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var back Query
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Tables[0].Name != "R" || !back.Tables[0].Sorted || back.Tables[1].Card != 1000 {
		t.Errorf("tables lost: %+v", back.Tables)
	}
	if back.Predicates[0].Sel != 0.1 || back.Predicates[0].EvalCostPerTuple != 2.5 {
		t.Errorf("predicates lost: %+v", back.Predicates)
	}
	// Lowercase keys are the wire format.
	if !strings.Contains(string(data), `"card":1000`) || !strings.Contains(string(data), `"sel":0.1`) {
		t.Errorf("wire format unexpected: %s", data)
	}
}
