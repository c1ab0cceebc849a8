// Package exec is an in-memory execution substrate: it synthesizes table
// data whose join behaviour matches the optimizer's cardinality model
// (uniform keys with domain sizes derived from predicate selectivities)
// and executes join plans against it.
//
// Stream is the one executor: a pull-based batch-at-a-time iterator
// pipeline (scans with predicate pushdown, symmetric hash joins) that runs
// any (possibly bushy) join tree without materializing between joins and
// records per-join measured vs. estimated cardinalities into a Trace.
// ExecuteAdaptive runs the same pipelines one join at a time and feeds the
// measurements back into the plan. The materializing executor the
// streaming one is differential-tested against lives in the package's
// tests.
//
// The package closes the loop the paper leaves implicit: plans decoded
// from the MILP are actual executable join orders, every join order of a
// query produces the same result, and measured result sizes track the
// estimates the encoder optimizes.
package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"milpjoin/internal/qopt"
)

// Relation is an in-memory table: named columns over int64 rows.
type Relation struct {
	Cols []string
	Rows [][]int64
}

// NumRows returns the relation's cardinality.
func (r *Relation) NumRows() int { return len(r.Rows) }

func (r *Relation) colIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Database holds one relation per query table.
type Database struct {
	Query     *qopt.Query
	Relations []*Relation
}

// Synthesize builds a database for q: each table gets one join-key column
// per incident binary predicate, drawn uniformly from a domain of size
// ≈ 1/selectivity, so that expected join sizes match the optimizer's
// independence-based estimates. Unary predicates become scan filters: the
// table gets one extra column whose zero values (≈ selectivity of the
// domain) pass the filter. Predicates over three or more tables are not
// executable and are rejected here, the only place a Database is built.
func Synthesize(q *qopt.Query, seed int64) (*Database, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for pi, p := range q.Predicates {
		if len(p.Tables) > 2 {
			return nil, fmt.Errorf("exec: predicate %d spans %d tables, at most 2 are executable", pi, len(p.Tables))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	db := &Database{Query: q}
	for t := range q.Tables {
		var cols []string
		var domains []int64
		for pi, p := range q.Predicates {
			if !predOnTable(&p, t) {
				continue
			}
			cols = append(cols, predCol(t, pi))
			d := int64(math.Round(1 / p.Sel))
			if d < 1 {
				d = 1
			}
			domains = append(domains, d)
		}
		rel := &Relation{Cols: cols}
		n := int(q.Tables[t].Card)
		for i := 0; i < n; i++ {
			row := make([]int64, len(cols))
			for c := range cols {
				row[c] = rng.Int63n(domains[c])
			}
			rel.Rows = append(rel.Rows, row)
		}
		db.Relations = append(db.Relations, rel)
	}
	return db, nil
}

// predOnTable reports whether predicate p references table t.
func predOnTable(p *qopt.Predicate, t int) bool {
	for _, pt := range p.Tables {
		if pt == t {
			return true
		}
	}
	return false
}

// predCol is the table-qualified key column of predicate pi on table t;
// qualification keeps column names unique across the join result.
func predCol(t, pi int) string { return fmt.Sprintf("T%d.p%d", t, pi) }

// AllColumns returns every column of the database in table order — the
// canonical column order for cross-plan result fingerprints (no plan
// projects, so every base column survives to the final result).
func (db *Database) AllColumns() []string {
	var cols []string
	for _, rel := range db.Relations {
		cols = append(cols, rel.Cols...)
	}
	return cols
}

// scanFilter is one pushed-down unary predicate: keep rows whose key
// column is zero (the synthesized data encodes the selectivity as the
// fraction of zeros in the column's domain).
type scanFilter struct {
	col  int
	pred int
}

// scanFilters returns the pushdown filters for base table t.
func (db *Database) scanFilters(t int) []scanFilter {
	var out []scanFilter
	for pi := range db.Query.Predicates {
		p := &db.Query.Predicates[pi]
		if len(p.Tables) == 1 && p.Tables[0] == t {
			out = append(out, scanFilter{col: db.Relations[t].colIndex(predCol(t, pi)), pred: pi})
		}
	}
	return out
}

func passesFilters(row []int64, filters []scanFilter) bool {
	for _, f := range filters {
		if row[f.col] != 0 {
			return false
		}
	}
	return true
}

func containsTable(tabs []int, t int) bool {
	for _, tb := range tabs {
		if tb == t {
			return true
		}
	}
	return false
}

// hashTab is a multimap from int64 key tuples to rows, keyed by a 64-bit
// tuple hash with collisions resolved by comparing the key columns. The
// empty-key table (cross products) stores every row in one bucket. The
// bucket map is allocated lazily on first insert — a table that never
// receives a row (the probe side of a scheduled streaming join) costs
// nothing, and pre-sizing is deferred until the join actually builds.
type hashTab struct {
	idx     []int // key column indices of inserted rows
	hint    int
	buckets map[uint64][][]int64
}

func newHashTab(idx []int, sizeHint int) *hashTab {
	return &hashTab{idx: idx, hint: sizeHint}
}

// hashRow hashes the key tuple of row at the given column indices. The
// FNV-1a-style 64-bit mix over whole int64 words avoids the per-byte loop
// and the string allocation of the old keyOf hot path.
func hashRow(row []int64, idx []int) uint64 {
	h := uint64(1469598103934665603)
	for _, i := range idx {
		h ^= uint64(row[i])
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

func (t *hashTab) insert(row []int64) {
	if t.buckets == nil {
		t.buckets = make(map[uint64][][]int64, t.hint)
	}
	h := hashRow(row, t.idx)
	t.buckets[h] = append(t.buckets[h], row)
}

// bucket returns the hash bucket row's key tuple at pIdx lands in. The
// bucket may contain hash collisions: callers must still filter with
// keysEqual against t.idx. Exposing the bucket lets hot probe loops match
// without a per-match indirect call.
func (t *hashTab) bucket(row []int64, pIdx []int) [][]int64 {
	return t.buckets[hashRow(row, pIdx)]
}

func keysEqual(a []int64, aIdx []int, b []int64, bIdx []int) bool {
	for k := range aIdx {
		if a[aIdx[k]] != b[bIdx[k]] {
			return false
		}
	}
	return true
}

func concatRows(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	return append(append(out, a...), b...)
}

// Fingerprint returns an order-independent hash of the relation's rows
// with columns aligned to the given column order — equal fingerprints mean
// equal result multisets, the cross-join-order correctness check.
func (r *Relation) Fingerprint(colOrder []string) (uint64, error) {
	perm := make([]int, len(colOrder))
	for i, name := range colOrder {
		perm[i] = r.colIndex(name)
		if perm[i] < 0 {
			return 0, fmt.Errorf("exec: fingerprint column %q missing", name)
		}
	}
	hashes := make([]uint64, 0, len(r.Rows))
	for _, row := range r.Rows {
		h := fnv.New64a()
		var buf [8]byte
		for _, ci := range perm {
			v := row[ci]
			for s := 0; s < 64; s += 8 {
				buf[s/8] = byte(v >> s)
			}
			h.Write(buf[:])
		}
		hashes = append(hashes, h.Sum64())
	}
	sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range hashes {
		for s := 0; s < 64; s += 8 {
			buf[s/8] = byte(v >> s)
		}
		h.Write(buf[:])
	}
	return h.Sum64(), nil
}
