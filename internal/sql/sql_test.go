package sql

import (
	"context"
	"math"
	"strings"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
)

func testCatalog() *Catalog {
	return NewCatalog().
		AddTable("orders", TableStats{
			Card: 100000,
			Columns: map[string]ColumnStats{
				"id":       {Distinct: 100000},
				"cust_id":  {Distinct: 5000},
				"item_id":  {Distinct: 2000},
				"quantity": {Distinct: 50},
			},
			SortedOn: "id",
		}).
		AddTable("customers", TableStats{
			Card: 5000,
			Columns: map[string]ColumnStats{
				"id":     {Distinct: 5000},
				"region": {Distinct: 20},
			},
		}).
		AddTable("items", TableStats{
			Card: 2000,
			Columns: map[string]ColumnStats{
				"id":    {Distinct: 2000},
				"price": {Distinct: 500},
			},
		})
}

const demoQuery = `
SELECT o.id, c.region
FROM orders o, customers AS c, items i
WHERE o.cust_id = c.id AND o.item_id = i.id AND i.price < 100
`

func TestParseDemoQuery(t *testing.T) {
	stmt, err := Parse(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.SelectAll {
		t.Error("SelectAll set for explicit select list")
	}
	if len(stmt.Select) != 2 || stmt.Select[0] != (ColumnRef{"o", "id"}) {
		t.Errorf("select list = %v", stmt.Select)
	}
	if len(stmt.From) != 3 {
		t.Fatalf("from = %v", stmt.From)
	}
	if stmt.From[0].Alias != "o" || stmt.From[1].Alias != "c" || stmt.From[2].Alias != "i" {
		t.Errorf("aliases = %v", stmt.From)
	}
	if len(stmt.Where) != 3 {
		t.Fatalf("where = %v", stmt.Where)
	}
	if stmt.Where[0].RightColumn == nil || stmt.Where[2].RightColumn != nil {
		t.Error("join/filter classification wrong")
	}
	if stmt.Where[2].Op != "<" || stmt.Where[2].RightValue != 100.0 {
		t.Errorf("filter = %+v", stmt.Where[2])
	}
}

func TestTranslateDemoQuery(t *testing.T) {
	stmt, err := Parse(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, aliases, err := testCatalog().Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(aliases) != 3 || aliases[0] != "o" {
		t.Errorf("aliases = %v", aliases)
	}
	if q.NumTables() != 3 {
		t.Fatalf("tables = %d", q.NumTables())
	}
	if q.Tables[0].Card != 100000 || !q.Tables[0].Sorted {
		t.Errorf("orders stats wrong: %+v", q.Tables[0])
	}
	// Join selectivities: 1/max(V) = 1/5000 and 1/2000.
	if len(q.Predicates) != 3 {
		t.Fatalf("predicates = %v", q.Predicates)
	}
	if math.Abs(q.Predicates[0].Sel-1.0/5000) > 1e-12 {
		t.Errorf("join sel = %g, want 1/5000", q.Predicates[0].Sel)
	}
	if math.Abs(q.Predicates[1].Sel-1.0/2000) > 1e-12 {
		t.Errorf("join sel = %g, want 1/2000", q.Predicates[1].Sel)
	}
	// Filter: range default 1/3, unary.
	if len(q.Predicates[2].Tables) != 1 || math.Abs(q.Predicates[2].Sel-1.0/3) > 1e-12 {
		t.Errorf("filter predicate = %+v", q.Predicates[2])
	}
}

func TestTranslatedQueryOptimizes(t *testing.T) {
	stmt, err := Parse(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := testCatalog().Translate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	pl, c, err := dp.OptimizeLeftDeep(context.Background(), q, cost.CoutSpec(), dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(q); err != nil {
		t.Fatal(err)
	}
	if c < 0 {
		t.Errorf("cost = %g", c)
	}
}

func TestParseSelectStar(t *testing.T) {
	stmt, err := Parse("SELECT * FROM a, b WHERE a.x = b.y")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.SelectAll {
		t.Error("SelectAll not set")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no from":          "SELECT *",
		"bare column":      "SELECT x FROM a, b",
		"bad operator":     "SELECT * FROM a, b WHERE a.x == b.y",
		"trailing":         "SELECT * FROM a, b WHERE a.x = b.y GROUP",
		"unterminated str": "SELECT * FROM a, b WHERE a.x = 'oops",
		"missing rhs":      "SELECT * FROM a, b WHERE a.x =",
		"bad char":         "SELECT * FROM a, b WHERE a.x = #",
		"no alias":         "SELECT * FROM a AS , b",
	}
	for name, input := range cases {
		if _, err := Parse(input); err == nil {
			t.Errorf("%s: expected parse error for %q", name, input)
		}
	}
}

func TestParseSemicolonAndStrings(t *testing.T) {
	stmt, err := Parse("SELECT * FROM a, b WHERE a.x = b.y AND a.name = 'north west';")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Where) != 2 || stmt.Where[1].RightValue != "north west" {
		t.Errorf("where = %+v", stmt.Where)
	}
}

func TestTranslateErrors(t *testing.T) {
	cat := testCatalog()
	cases := map[string]string{
		"one table":       "SELECT * FROM orders",
		"unknown table":   "SELECT * FROM orders o, nosuch n WHERE o.id = n.id",
		"dup alias":       "SELECT * FROM orders o, customers o WHERE o.id = o.id",
		"unknown alias":   "SELECT * FROM orders o, customers c WHERE x.id = c.id",
		"unknown column":  "SELECT * FROM orders o, customers c WHERE o.nope = c.id",
		"non-equi join":   "SELECT * FROM orders o, customers c WHERE o.cust_id < c.id",
		"self comparison": "SELECT * FROM orders o, customers c WHERE o.id = o.cust_id AND o.id = c.id",
	}
	for name, input := range cases {
		stmt, err := Parse(input)
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, _, err := cat.Translate(stmt); err == nil {
			t.Errorf("%s: expected translate error for %q", name, input)
		}
	}
}

func TestFilterSelectivities(t *testing.T) {
	cat := testCatalog()
	if got := cat.filterSelectivity("customers", "region", "="); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("equality sel = %g, want 1/20", got)
	}
	if got := cat.filterSelectivity("customers", "region", "<"); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("range sel = %g", got)
	}
	if got := cat.filterSelectivity("customers", "region", "<>"); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("inequality sel = %g", got)
	}
	if got := cat.filterSelectivity("nosuch", "col", "="); got != defaultEqSel {
		t.Errorf("unknown column sel = %g", got)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select * FROM a, b where a.x = b.y"); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(strings.ToUpper("select * from a, b where a.x = b.y")); err != nil {
		t.Fatal(err)
	}
}
