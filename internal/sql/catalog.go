// Package sql provides a front end for the optimizer: a catalog of table
// statistics and a parser for a small SQL subset (select-project-join
// queries), translating them into the qopt problem model with textbook
// selectivity estimation — the path a query takes through a real system
// before join ordering begins.
package sql

import (
	"fmt"
	"math"

	"milpjoin/internal/qopt"
)

// ColumnStats describe one column for selectivity estimation.
type ColumnStats struct {
	// Distinct is the number of distinct values (≥ 1).
	Distinct float64
}

// TableStats describe one base table.
type TableStats struct {
	// Card is the table cardinality.
	Card float64
	// Columns maps column name → statistics.
	Columns map[string]ColumnStats
	// SortedOn names the column the table is physically sorted on
	// (empty: unsorted).
	SortedOn string
}

// Catalog maps table names to statistics.
type Catalog struct {
	Tables map[string]TableStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{Tables: map[string]TableStats{}}
}

// AddTable registers a table.
func (c *Catalog) AddTable(name string, stats TableStats) *Catalog {
	c.Tables[name] = stats
	return c
}

// selectivity estimation defaults (System R heritage).
const (
	defaultEqSel    = 0.1    // equality with unknown distinct count
	defaultRangeSel = 1. / 3 // inequality comparisons
)

// joinSelectivity estimates sel(a = b) as 1/max(V(a), V(b)).
func (c *Catalog) joinSelectivity(t1, c1, t2, c2 string) float64 {
	v1 := c.distinct(t1, c1)
	v2 := c.distinct(t2, c2)
	v := math.Max(v1, v2)
	if v <= 0 {
		return defaultEqSel
	}
	return clampSel(1 / v)
}

// filterSelectivity estimates a column-vs-constant comparison.
func (c *Catalog) filterSelectivity(table, col, op string) float64 {
	switch op {
	case "=":
		if v := c.distinct(table, col); v > 0 {
			return clampSel(1 / v)
		}
		return defaultEqSel
	case "<", ">", "<=", ">=":
		return defaultRangeSel
	case "<>", "!=":
		if v := c.distinct(table, col); v > 0 {
			return clampSel(1 - 1/v)
		}
		return 1 - defaultEqSel
	default:
		return defaultEqSel
	}
}

func (c *Catalog) distinct(table, col string) float64 {
	ts, ok := c.Tables[table]
	if !ok {
		return 0
	}
	cs, ok := ts.Columns[col]
	if !ok {
		return 0
	}
	return cs.Distinct
}

func clampSel(s float64) float64 {
	if s <= 0 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// Translate builds a qopt.Query from a parsed statement and the catalog.
// The returned alias list maps qopt table indices back to query aliases.
func (c *Catalog) Translate(stmt *SelectStatement) (*qopt.Query, []string, error) {
	if len(stmt.From) < 2 {
		return nil, nil, fmt.Errorf("sql: join ordering needs at least two tables, got %d", len(stmt.From))
	}
	q := &qopt.Query{}
	aliasIdx := map[string]int{}
	var aliases []string
	for _, fr := range stmt.From {
		ts, ok := c.Tables[fr.Table]
		if !ok {
			return nil, nil, fmt.Errorf("sql: unknown table %q", fr.Table)
		}
		if _, dup := aliasIdx[fr.Alias]; dup {
			return nil, nil, fmt.Errorf("sql: duplicate alias %q", fr.Alias)
		}
		aliasIdx[fr.Alias] = len(q.Tables)
		aliases = append(aliases, fr.Alias)
		q.Tables = append(q.Tables, qopt.Table{
			Name:   fr.Alias,
			Card:   ts.Card,
			Sorted: ts.SortedOn != "",
		})
	}

	resolve := func(ref ColumnRef) (int, string, error) {
		idx, ok := aliasIdx[ref.Qualifier]
		if !ok {
			return 0, "", fmt.Errorf("sql: unknown table alias %q", ref.Qualifier)
		}
		table := stmt.From[idx].Table
		if _, ok := c.Tables[table].Columns[ref.Column]; !ok {
			return 0, "", fmt.Errorf("sql: unknown column %s.%s", table, ref.Column)
		}
		return idx, table, nil
	}

	for _, cond := range stmt.Where {
		li, lt, err := resolve(cond.Left)
		if err != nil {
			return nil, nil, err
		}
		if cond.RightColumn != nil {
			ri, rt, err := resolve(*cond.RightColumn)
			if err != nil {
				return nil, nil, err
			}
			if cond.Op != "=" {
				return nil, nil, fmt.Errorf("sql: only equi-joins are supported between columns (got %q)", cond.Op)
			}
			if li == ri {
				return nil, nil, fmt.Errorf("sql: self-comparison %s.%s = %s.%s within one table",
					cond.Left.Qualifier, cond.Left.Column, cond.RightColumn.Qualifier, cond.RightColumn.Column)
			}
			q.Predicates = append(q.Predicates, qopt.Predicate{
				Name:   fmt.Sprintf("%s.%s=%s.%s", cond.Left.Qualifier, cond.Left.Column, cond.RightColumn.Qualifier, cond.RightColumn.Column),
				Tables: []int{li, ri},
				Sel:    c.joinSelectivity(lt, cond.Left.Column, rt, cond.RightColumn.Column),
			})
			continue
		}
		q.Predicates = append(q.Predicates, qopt.Predicate{
			Name:   fmt.Sprintf("%s.%s%s%v", cond.Left.Qualifier, cond.Left.Column, cond.Op, cond.RightValue),
			Tables: []int{li},
			Sel:    c.filterSelectivity(lt, cond.Left.Column, cond.Op),
		})
	}

	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	return q, aliases, nil
}
