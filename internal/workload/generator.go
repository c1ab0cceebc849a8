// Package workload generates random join queries following the method of
// Steinbrunn, Moerkotte & Kemper ("Heuristic and randomized optimization
// for the join ordering problem", VLDBJ 1997), which the paper uses for its
// experimental evaluation: chain, cycle, and star join graph shapes with
// log-uniform table cardinalities and uniform predicate selectivities.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"milpjoin/internal/qopt"
)

// GraphShape selects the join graph structure.
type GraphShape int

const (
	// Chain connects table i to table i+1.
	Chain GraphShape = iota
	// Cycle is a chain plus an edge closing the loop.
	Cycle
	// Star connects table 0 (the hub / fact table) to every other table.
	Star
	// Clique connects every pair of tables (not used by the paper's
	// evaluation, provided for completeness).
	Clique
	// Snowflake is a fact table joined to dimension chains: table 0 is
	// the hub, connected to the root of each branch, and every branch is
	// a short chain (depth ~3) of further dimension tables — the
	// large-graph shape of the hybrid-decomposition evaluation
	// (Schönberger & Trummer). The fact table's cardinality is drawn
	// from the top of the configured range so it dominates like a real
	// fact table.
	Snowflake
	// Transitive is a chain with shortcut predicates (i, i+2) layered on
	// top, the "transitive-heavy" pattern of queries whose join
	// predicates partially imply one another: many small cycles, cut
	// edges everywhere.
	Transitive
)

// String names the shape.
func (g GraphShape) String() string {
	switch g {
	case Chain:
		return "chain"
	case Cycle:
		return "cycle"
	case Star:
		return "star"
	case Clique:
		return "clique"
	case Snowflake:
		return "snowflake"
	case Transitive:
		return "transitive"
	default:
		return fmt.Sprintf("GraphShape(%d)", int(g))
	}
}

// Shapes lists the three join graph structures of the paper's evaluation.
func Shapes() []GraphShape { return []GraphShape{Chain, Cycle, Star} }

// Config tunes the generator. The zero value yields paper-like queries.
type Config struct {
	// MinLogCard/MaxLogCard bound log10 of table cardinalities;
	// cardinalities are log-uniform in [10^min, 10^max].
	// Defaults: 1 and 5 (10 … 100,000 rows).
	MinLogCard, MaxLogCard float64
	// MinSel/MaxSel bound predicate selectivities, drawn uniformly.
	// Defaults: 0.0001 and 1.
	MinSel, MaxSel float64
}

func (c Config) withDefaults() Config {
	if c.MinLogCard == 0 && c.MaxLogCard == 0 {
		c.MinLogCard, c.MaxLogCard = 1, 5
	}
	if c.MinSel == 0 && c.MaxSel == 0 {
		c.MinSel, c.MaxSel = 0.0001, 1
	}
	return c
}

// Generate builds a random query with n tables and the given join graph
// shape, deterministically from seed.
func Generate(shape GraphShape, n int, seed int64, cfg Config) *qopt.Query {
	if n < 2 {
		panic(fmt.Sprintf("workload: need at least 2 tables, got %d", n))
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	q := &qopt.Query{}
	for i := 0; i < n; i++ {
		lc := cfg.MinLogCard + rng.Float64()*(cfg.MaxLogCard-cfg.MinLogCard)
		card := math.Round(math.Pow(10, lc))
		if card < 1 {
			card = 1
		}
		q.Tables = append(q.Tables, qopt.Table{
			Name: fmt.Sprintf("T%d", i),
			Card: card,
		})
	}

	addPred := func(a, b int) {
		q.Predicates = append(q.Predicates, qopt.Predicate{
			Name:   fmt.Sprintf("p%d", len(q.Predicates)),
			Tables: []int{a, b},
			Sel:    cfg.MinSel + rng.Float64()*(cfg.MaxSel-cfg.MinSel),
		})
	}

	switch shape {
	case Chain:
		for i := 0; i+1 < n; i++ {
			addPred(i, i+1)
		}
	case Cycle:
		for i := 0; i+1 < n; i++ {
			addPred(i, i+1)
		}
		addPred(n-1, 0)
	case Star:
		for i := 1; i < n; i++ {
			addPred(0, i)
		}
	case Clique:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				addPred(i, j)
			}
		}
	case Snowflake:
		// ceil((n-1)/3) branches of depth <= 3: table i hangs off the
		// hub while a full level fits, then off the same-position table
		// one level up. The hub's cardinality is forced to the top decade
		// of the range so joins touching it are the expensive ones.
		lc := cfg.MaxLogCard - 1 + rng.Float64()
		if hub := math.Round(math.Pow(10, lc)); hub > q.Tables[0].Card {
			q.Tables[0].Card = hub
		}
		branches := (n - 1 + 2) / 3
		for i := 1; i < n; i++ {
			if i <= branches {
				addPred(0, i)
			} else {
				addPred(i-branches, i)
			}
		}
	case Transitive:
		for i := 0; i+1 < n; i++ {
			addPred(i, i+1)
		}
		for i := 0; i+2 < n; i++ {
			addPred(i, i+2)
		}
	default:
		panic(fmt.Sprintf("workload: unknown shape %v", shape))
	}
	return q
}
