package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"slices"
	"testing"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_fingerprints.jsonl from the current Canonicalize")

const goldenPath = "testdata/golden_fingerprints.jsonl"

// goldenRecord is one line of the golden corpus: a query and what
// Canonicalize answered for it in both modes when the file was written.
// An empty key means the query was uncacheable in that mode.
type goldenRecord struct {
	Query     *joinorder.Query `json:"q"`
	Exact     string           `json:"exact"`
	ExactPerm []int            `json:"exact_perm,omitempty"`
	Shape     string           `json:"shape"`
	ShapePerm []int            `json:"shape_perm,omitempty"`
}

func goldenOf(q *joinorder.Query) goldenRecord {
	rec := goldenRecord{Query: q}
	if c, err := Canonicalize(q, Exact); err == nil {
		rec.Exact, rec.ExactPerm = c.Key, c.Perm
	}
	if c, err := Canonicalize(q, Shape); err == nil {
		rec.Shape, rec.ShapePerm = c.Key, c.Perm
	}
	return rec
}

// goldenCorpus builds the queries the golden file was written from:
// generated queries of every shape, relabelings of some of them, the
// symmetric graphs that exercise the individualization search and its
// tie-breaks, parallel predicates, sorted flags, evaluation costs, and
// tie-heavy small-integer queries in the style of the fuzzer.
func goldenCorpus() []*joinorder.Query {
	var qs []*joinorder.Query
	shapes := []workload.GraphShape{workload.Chain, workload.Cycle, workload.Star, workload.Clique, workload.Snowflake, workload.Transitive}
	rng := rand.New(rand.NewSource(16))
	for _, shape := range shapes {
		for n := 3; n <= 12; n++ {
			if shape == workload.Clique && n > 8 {
				continue // 66 predicates at 12 tables: file size, not coverage
			}
			for seed := int64(1); seed <= 2; seed++ {
				q := workload.Generate(shape, n, seed*100+int64(n), workload.Config{})
				qs = append(qs, q)
				if seed == 1 {
					qs = append(qs, relabel(q, rng.Perm(n)))
				}
			}
		}
	}
	uniform := func(n int, edges [][2]int) *joinorder.Query {
		q := &joinorder.Query{Tables: make([]joinorder.Table, n)}
		for i := range q.Tables {
			q.Tables[i].Card = 1000
		}
		for _, e := range edges {
			q.Predicates = append(q.Predicates, joinorder.Predicate{Tables: []int{e[0], e[1]}, Sel: 0.01})
		}
		return q
	}
	for n := 3; n <= 10; n++ {
		var star, cycle, clique, chain [][2]int
		for i := 1; i < n; i++ {
			star = append(star, [2]int{0, i})
			chain = append(chain, [2]int{i - 1, i})
			for j := 0; j < i; j++ {
				clique = append(clique, [2]int{j, i})
			}
		}
		cycle = append(slices.Clone(chain), [2]int{n - 1, 0})
		qs = append(qs, uniform(n, star), uniform(n, cycle), uniform(n, chain))
		if n <= 7 {
			qs = append(qs, uniform(n, clique))
		}
		// A star whose hub differs and whose leaves come in two kinds.
		q := uniform(n, star)
		q.Tables[0].Card = 1e6
		for i := 1; i < n; i += 2 {
			q.Tables[i].Sorted = true
		}
		qs = append(qs, q, relabel(q, rng.Perm(n)))
	}
	// Parallel predicates on one pair, evaluation costs.
	for n := 3; n <= 6; n++ {
		q := workload.Generate(workload.Chain, n, int64(n), workload.Config{})
		q.Predicates = append(q.Predicates,
			joinorder.Predicate{Tables: []int{1, 0}, Sel: 0.5, EvalCostPerTuple: 2},
			joinorder.Predicate{Tables: []int{0, 1}, Sel: 0.25})
		q.Predicates[0].EvalCostPerTuple = 0.5
		qs = append(qs, q, relabel(q, rng.Perm(n)))
	}
	for i := 0; i < 40; i++ {
		data := make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		if i%2 == 0 { // few distinct bytes: many tied statistics
			for k := range data {
				data[k] = data[k] % 3 * 3
			}
		}
		if q := queryFromBytes(data); q != nil {
			qs = append(qs, q)
		}
	}
	return qs
}

// TestGoldenFingerprints pins the Exact and Shape keys and permutations of
// a fixed corpus byte for byte: persisted plan logs and entries replicated
// between nodes of different builds are addressed by these keys and
// translated by these permutations, so no change to Canonicalize may move
// one. Regenerate (only for a deliberate format change) with
// go test ./joinorder/cache -run TestGoldenFingerprints -update-golden.
func TestGoldenFingerprints(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, q := range goldenCorpus() {
			if err := enc.Encode(goldenOf(q)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n, cacheable := 0, 0
	for sc.Scan() {
		n++
		var want goldenRecord
		if err := json.Unmarshal(sc.Bytes(), &want); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		got := goldenOf(want.Query)
		if got.Exact != want.Exact || !slices.Equal(got.ExactPerm, want.ExactPerm) {
			t.Errorf("line %d: exact key/perm moved:\n got %s %v\nwant %s %v", n, got.Exact, got.ExactPerm, want.Exact, want.ExactPerm)
		}
		if got.Shape != want.Shape || !slices.Equal(got.ShapePerm, want.ShapePerm) {
			t.Errorf("line %d: shape key/perm moved:\n got %s %v\nwant %s %v", n, got.Shape, got.ShapePerm, want.Shape, want.ShapePerm)
		}
		if want.Exact != "" {
			cacheable++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 200 || cacheable < 200 {
		t.Fatalf("golden corpus has %d queries, %d cacheable; want at least 200 of each", n, cacheable)
	}
}
