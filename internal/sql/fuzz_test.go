package sql

import (
	"strings"
	"testing"

	"milpjoin/joinorder/cache"
)

// fuzzCatalog is the fixed catalog FuzzSQLParse translates against: the
// table and column names its seeds use, with varied statistics.
func fuzzCatalog() *Catalog {
	c := NewCatalog()
	for i, table := range []string{"a", "b", "c", "r", "s", "t", "tab", "tab2", "r1", "r2", "r3", "r4"} {
		cols := map[string]ColumnStats{}
		for j, col := range []string{"a", "b", "c", "d", "w", "x", "y", "z"} {
			cols[col] = ColumnStats{Distinct: float64(10 * (i + j + 1))}
		}
		c.AddTable(table, TableStats{Card: float64(100 * (i + 1)), Columns: cols})
	}
	return c
}

// FuzzSQLParse checks the parser never panics, that every statement it
// accepts names its tables and its select list, and that a statement the
// fixed catalog translates into a join-only query (every predicate binary)
// has a plan-cache fingerprint.
func FuzzSQLParse(f *testing.F) {
	f.Add("SELECT * FROM r, s WHERE r.a = s.b")
	f.Add("SELECT r.a, s.b FROM r JOIN s ON r.a = s.b JOIN t ON s.c = t.d")
	f.Add("select t1.x from tab t1, tab2 t2 where t1.x = t2.y and t2.z = t1.w")
	f.Add("SELECT * FROM a")
	f.Add("SELECT * FROM a, b, c WHERE a.x=b.x AND b.y=c.y AND a.z=c.z")
	f.Add("")
	f.Add("SELECT")
	f.Add("SELECT * FROM r WHERE r.a = r.a")
	f.Add("SELECT * FROM \x00")

	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatal("nil statement with nil error")
		}
		if len(stmt.From) == 0 {
			t.Fatalf("accepted statement without tables: %q", input)
		}
		for _, fi := range stmt.From {
			if strings.TrimSpace(fi.Table) == "" || strings.TrimSpace(fi.Alias) == "" {
				t.Fatalf("accepted empty table reference: %q", input)
			}
		}
		if !stmt.SelectAll && len(stmt.Select) == 0 {
			t.Fatalf("accepted statement selecting nothing: %q", input)
		}

		q, _, err := cat.Translate(stmt)
		if err != nil {
			return
		}
		for _, p := range q.Predicates {
			if !p.IsBinary() {
				return
			}
		}
		if _, err := cache.Canonicalize(q, cache.Exact); err != nil {
			t.Fatalf("join-only query of %q has no fingerprint: %v", input, err)
		}
	})
}
