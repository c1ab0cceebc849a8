// Package qopt defines the query optimization problem model from Section 3
// of the paper: a query is a set of tables to join plus predicates that
// connect them, with table cardinalities and predicate selectivities.
// Extensions cover n-ary predicates, correlated predicate groups, and
// expensive predicates.
package qopt

import (
	"errors"
	"fmt"
	"math"
)

// Table is a base relation.
type Table struct {
	Name string `json:"name"`
	// Card is the table cardinality; must be ≥ 1.
	Card float64 `json:"card"`
	// Sorted marks tables whose data is stored sorted on the join key,
	// providing the "interesting order" property of Section 5.4 for free.
	Sorted bool `json:"sorted,omitempty"`
}

// Predicate is a join/filter predicate over one or more tables. Binary
// predicates (two tables) form the join graph of the basic model; unary and
// n-ary predicates are the Section 5.1 extension.
type Predicate struct {
	Name string `json:"name"`
	// Tables lists the indices of all referenced tables.
	Tables []int `json:"tables"`
	// Sel is the selectivity in (0, 1].
	Sel float64 `json:"sel"`
	// EvalCostPerTuple is the per-tuple evaluation cost for the
	// expensive-predicates extension; 0 means evaluation is free.
	EvalCostPerTuple float64 `json:"evalCostPerTuple,omitempty"`
}

// IsBinary reports whether the predicate references exactly two tables.
func (p *Predicate) IsBinary() bool { return len(p.Tables) == 2 }

// CorrelatedGroup marks a set of predicates whose joint selectivity
// deviates from the independence assumption (Section 5.1). CorrectionSel
// is the factor g with Sel(g)·Π Sel(p) giving the true joint selectivity.
type CorrelatedGroup struct {
	// Predicates indexes into Query.Predicates.
	Predicates []int `json:"predicates"`
	// CorrectionSel is the correction factor; may exceed 1.
	CorrectionSel float64 `json:"correctionSel"`
}

// Query is a join query: tables, predicates, and optional extension data.
type Query struct {
	Tables     []Table           `json:"tables"`
	Predicates []Predicate       `json:"predicates"`
	Correlated []CorrelatedGroup `json:"correlated,omitempty"`
}

// NumTables returns the number of tables to join.
func (q *Query) NumTables() int { return len(q.Tables) }

// NumJoins returns the number of binary joins a complete plan needs.
func (q *Query) NumJoins() int { return len(q.Tables) - 1 }

// Validate checks internal consistency.
func (q *Query) Validate() error {
	if len(q.Tables) < 2 {
		return errors.New("qopt: query needs at least two tables")
	}
	for i, t := range q.Tables {
		if t.Card < 1 || math.IsNaN(t.Card) || math.IsInf(t.Card, 0) {
			return fmt.Errorf("qopt: table %d (%s) has cardinality %g, want ≥ 1", i, t.Name, t.Card)
		}
	}
	for i, p := range q.Predicates {
		if len(p.Tables) == 0 {
			return fmt.Errorf("qopt: predicate %d references no tables", i)
		}
		seen := map[int]bool{}
		for _, ti := range p.Tables {
			if ti < 0 || ti >= len(q.Tables) {
				return fmt.Errorf("qopt: predicate %d references unknown table %d", i, ti)
			}
			if seen[ti] {
				return fmt.Errorf("qopt: predicate %d references table %d twice", i, ti)
			}
			seen[ti] = true
		}
		if !(p.Sel > 0 && p.Sel <= 1) {
			return fmt.Errorf("qopt: predicate %d has selectivity %g outside (0, 1]", i, p.Sel)
		}
		if p.EvalCostPerTuple < 0 {
			return fmt.Errorf("qopt: predicate %d has negative evaluation cost", i)
		}
	}
	for i, g := range q.Correlated {
		if len(g.Predicates) < 2 {
			return fmt.Errorf("qopt: correlated group %d has fewer than two predicates", i)
		}
		for _, pi := range g.Predicates {
			if pi < 0 || pi >= len(q.Predicates) {
				return fmt.Errorf("qopt: correlated group %d references unknown predicate %d", i, pi)
			}
		}
		if g.CorrectionSel <= 0 {
			return fmt.Errorf("qopt: correlated group %d has correction factor %g", i, g.CorrectionSel)
		}
	}
	return nil
}

// TableName returns the name of table i (or a synthetic one).
func (q *Query) TableName(i int) string {
	if n := q.Tables[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("T%d", i)
}

// LogCard returns log10 of the cardinality of table i.
func (q *Query) LogCard(i int) float64 { return math.Log10(q.Tables[i].Card) }

// LogSel returns log10 of the selectivity of predicate p (≤ 0).
func (q *Query) LogSel(p int) float64 { return math.Log10(q.Predicates[p].Sel) }

// MaxLogCard returns log10 of the largest possible intermediate result: the
// full cross product of all tables with no predicates applied.
func (q *Query) MaxLogCard() float64 {
	var s float64
	for i := range q.Tables {
		s += q.LogCard(i)
	}
	return s
}
