package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
)

func TestParseShape(t *testing.T) {
	for name, want := range map[string]workload.GraphShape{
		"chain": workload.Chain, "cycle": workload.Cycle,
		"star": workload.Star, "clique": workload.Clique,
	} {
		got, err := parseShape(name)
		if err != nil || got != want {
			t.Errorf("parseShape(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseShape("triangle"); err == nil {
		t.Error("unknown shape accepted")
	}
}

// TestLoadQueryExecute checks the generator swaps to the execution-
// friendly workload config when -execute is set: table cardinalities
// must stay small enough to actually run.
func TestLoadQueryExecute(t *testing.T) {
	q, err := loadQuery("", "", "", "chain", 6, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range q.Tables {
		if tab.Card > 400 {
			t.Errorf("table %d has %g rows — too large for the executable workload config", i, tab.Card)
		}
	}
}

func TestLoadQueryGenerator(t *testing.T) {
	q, err := loadQuery("", "", "", "star", 6, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumTables() != 6 || len(q.Predicates) != 5 {
		t.Errorf("generated %d tables, %d predicates", q.NumTables(), len(q.Predicates))
	}
}

func TestLoadQueryJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.json")
	content := `{
		"tables": [{"name": "A", "card": 10}, {"name": "B", "card": 20}],
		"predicates": [{"name": "p", "tables": [0, 1], "sel": 0.5}]
	}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := loadQuery(path, "", "", "", 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumTables() != 2 || q.Tables[0].Name != "A" || q.Predicates[0].Sel != 0.5 {
		t.Errorf("parsed query = %+v", q)
	}
	// Invalid JSON and invalid query both error.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := loadQuery(bad, "", "", "", 0, 0, false); err == nil {
		t.Error("bad JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"tables": [{"name": "A", "card": 10}]}`), 0o644)
	if _, err := loadQuery(invalid, "", "", "", 0, 0, false); err == nil {
		t.Error("single-table query accepted")
	}
}

func TestLoadQuerySQL(t *testing.T) {
	q, err := loadQuery("", "SELECT * FROM orders o, customers c WHERE o.cust_id = c.id",
		"../../testdata/catalog.json", "", 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumTables() != 2 || len(q.Predicates) != 1 {
		t.Errorf("sql query = %+v", q)
	}
	if _, err := loadQuery("", "SELECT * FROM a, b WHERE a.x = b.y", "", "", 0, 0, false); err == nil {
		t.Error("-sql without -catalog accepted")
	}
}

func TestRunExecuted(t *testing.T) {
	// A fixed small query keeps the executed intermediates tiny; the
	// generator path of -execute is covered by TestLoadQueryExecute.
	q := &joinorder.Query{
		Tables: []joinorder.Table{{Card: 100}, {Card: 80}, {Card: 60}, {Card: 40}, {Card: 20}},
		Predicates: []joinorder.Predicate{
			{Tables: []int{0, 1}, Sel: 0.05},
			{Tables: []int{1, 2}, Sel: 0.04},
			{Tables: []int{2, 3}, Sel: 0.05},
			{Tables: []int{3, 4}, Sel: 0.1},
		},
	}
	opts := joinorder.Options{Strategy: "dp-bushy", Budget: joinorder.Budget{TimeLimit: 10 * time.Second}}

	var text bytes.Buffer
	if err := runExecuted(context.Background(), &text, nil, q, opts, joinorder.ExecOptions{DataSeed: 9}, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"executed C_out", "max q-error", "result rows"} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var jsonBuf bytes.Buffer
	eo := joinorder.ExecOptions{DataSeed: 9, Feedback: true, QErrorThreshold: 2}
	if err := runExecuted(context.Background(), &jsonBuf, nil, q, opts, eo, true); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Result struct {
			Status string `json:"status"`
		} `json:"result"`
		Execution struct {
			ExecutedCout float64 `json:"executed_cout"`
			MaxQError    float64 `json:"max_qerror"`
			Joins        []struct {
				Tables []int `json:"tables"`
			} `json:"joins"`
		} `json:"execution"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("-execute -json output does not parse: %v\n%s", err, jsonBuf.String())
	}
	if doc.Result.Status == "" {
		t.Error("execution document missing result status")
	}
	if len(doc.Execution.Joins) != 4 {
		t.Errorf("execution document has %d joins, want 4", len(doc.Execution.Joins))
	}
	if doc.Execution.ExecutedCout <= 0 || doc.Execution.MaxQError < 1 {
		t.Errorf("execution document = %+v", doc.Execution)
	}

	// -cache -execute composes: the optimize leg runs through the plan
	// cache, so the second execution of the same query hits.
	co, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Strategy = "milp"
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := runExecuted(context.Background(), &buf, co, q, opts, joinorder.ExecOptions{DataSeed: 9}, false); err != nil {
			t.Fatal(err)
		}
	}
	co.Wait()
	if s := co.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cached -execute: hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestPrintJSONDocument(t *testing.T) {
	q, err := loadQuery("", "", "", "chain", 6, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	res, err := joinorder.Optimize(context.Background(), q, joinorder.Options{
		Strategy: "milp",
		Budget:   joinorder.Budget{TimeLimit: 30 * time.Second},
		OnEvent:  func(ev joinorder.Event) { counts[ev.Kind.String()]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printJSON(&buf, q, res, "milp", "hash", "medium", counts, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Query struct {
			Tables int `json:"tables"`
		} `json:"query"`
		Result struct {
			Status string `json:"status"`
			Stats  *struct {
				SimplexIters int     `json:"simplex_iters"`
				SearchSec    float64 `json:"search_sec"`
			} `json:"stats"`
		} `json:"result"`
		EventCounts map[string]int `json:"event_counts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.String())
	}
	if doc.Query.Tables != 6 || doc.Result.Status != "optimal" {
		t.Errorf("query/status = %+v", doc)
	}
	if doc.Result.Stats == nil || doc.Result.Stats.SimplexIters <= 0 || doc.Result.Stats.SearchSec <= 0 {
		t.Errorf("stats missing from document: %+v", doc.Result.Stats)
	}
	if len(doc.EventCounts) < 3 {
		t.Errorf("want >= 3 distinct event kinds, got %v", doc.EventCounts)
	}
}

// TestPrintJSONCacheDocument checks the -cache -json contract: one
// self-contained document carrying the cache counters and the per-entry
// table, with background refines already settled.
func TestPrintJSONCacheDocument(t *testing.T) {
	q, err := loadQuery("", "", "", "chain", 6, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := joinorder.Options{Strategy: "dp-leftdeep", Budget: joinorder.Budget{TimeLimit: 10 * time.Second}}
	var res *joinorder.Result
	for i := 0; i < 3; i++ { // first run solves, the rest hit
		if res, err = co.Optimize(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := printJSON(&buf, q, res, "dp-leftdeep", "hash", "medium", nil, nil, co); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cache *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Entries []struct {
			Key    string `json:"key"`
			Hits   int64  `json:"hits"`
			Tables int    `json:"tables"`
		} `json:"cache_entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.String())
	}
	if doc.Cache == nil || doc.Cache.Hits != 2 || doc.Cache.Misses != 1 {
		t.Errorf("cache counters = %+v, want hits=2 misses=1", doc.Cache)
	}
	if len(doc.Entries) != 1 || doc.Entries[0].Key == "" || doc.Entries[0].Hits != 2 || doc.Entries[0].Tables != 6 {
		t.Errorf("cache_entries = %+v", doc.Entries)
	}
}
