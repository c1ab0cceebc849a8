package core

import (
	"fmt"

	"milpjoin/internal/milp"
)

// addProjection implements Section 5.2: clo variables decide which columns
// stay in each intermediate result, and the hash-join objective prices
// operands by their byte volume instead of a fixed tuple width.
//
// Conventions (documented deviations from the paper's sketch):
//   - Inner operands are base-table scans and keep their full width.
//   - A column may enter a result only when its table was just joined or
//     when it was present in the previous result (the paper's
//     clo_j ≥ clo_{j+1} rule is refined so late-joining tables can still
//     contribute columns).
//   - Row CLO[J] models the final result; required columns are fixed to 1
//     there, and the propagation chain keeps them alive upstream.
func (e *Encoding) addProjection() error {
	m := e.Model
	q := e.Query
	p := e.Opts.CostParams

	nL := len(q.Columns)
	e.CLO = make([][]milp.Var, e.J+1)
	for j := 0; j <= e.J; j++ {
		e.CLO[j] = make([]milp.Var, nL)
		for l := 0; l < nL; l++ {
			e.CLO[j][l] = m.AddBinary(0, fmt.Sprintf("clo_%d_c%d", j, l))
		}
	}

	for l, col := range q.Columns {
		t := col.Table
		// A column requires its table in the operand (joins 0…J−1; the
		// final result trivially contains every table).
		for j := 0; j < e.J; j++ {
			m.AddConstr(milp.Expr(e.CLO[j][l], 1.0, e.TIO[j][t], -1.0), milp.LE, 0,
				fmt.Sprintf("cltab_%d_c%d", j, l))
		}
		// Propagation: present in result j+1 only if present in the
		// outer operand of join j or delivered by join j's inner table.
		for j := 0; j < e.J; j++ {
			m.AddConstr(
				milp.Expr(e.CLO[j+1][l], 1.0, e.CLO[j][l], -1.0, e.TII[j][t], -1.0),
				milp.LE, 0, fmt.Sprintf("clprop_%d_c%d", j, l))
		}
		// Required output columns must reach the final result.
		if col.Required {
			m.SetBounds(e.CLO[e.J][l], 1, 1)
		}
	}

	// Columns a predicate reads must stay alive until it is applied.
	for _, pi := range e.binPreds {
		for _, l := range q.Predicates[pi].Columns {
			t := q.Columns[l].Table
			// Join 0: no predicates applied yet.
			m.AddConstr(milp.Expr(e.CLO[0][l], 1.0, e.TIO[0][t], -1.0), milp.GE, 0,
				fmt.Sprintf("clneed0_p%d_c%d", pi, l))
			for j := 1; j < e.J; j++ {
				// clo ≥ tio_table − pao: needed while the table is
				// present and the predicate is still pending.
				m.AddConstr(
					milp.Expr(e.CLO[j][l], 1.0, e.TIO[j][t], -1.0, e.PAO[j][pi], 1.0),
					milp.GE, 0, fmt.Sprintf("clneed_%d_p%d_c%d", j, pi, l))
			}
		}
	}

	// Objective: hash join cost 3·(bytes_outer + bytes_inner)/pageBytes.
	rowBytes := make([]float64, q.NumTables())
	for _, col := range q.Columns {
		rowBytes[col.Table] += col.Bytes
	}
	perPage := 3.0 / p.PageBytes

	for j := 0; j < e.J; j++ {
		// Inner: full-width scan of the selected table.
		for t := 0; t < q.NumTables(); t++ {
			v := e.TII[j][t]
			m.SetObjCoeff(v, m.ObjCoeff(v)+perPage*e.effCard[t]*rowBytes[t])
		}
		if j == 0 {
			// Outer of join 0: per-column bytes of a single table —
			// exactly linear since the table cardinality is constant.
			for l, col := range q.Columns {
				v := e.CLO[0][l]
				m.SetObjCoeff(v, m.ObjCoeff(v)+perPage*e.effCard[col.Table]*col.Bytes)
			}
			continue
		}
		// Outer of join j ≥ 1: Σ_l Byte(l)·co_j·clo_jl.
		for l, col := range q.Columns {
			e.priceOuter(j, e.CLO[j][l], perPage*col.Bytes, fmt.Sprintf("wb_%d_c%d", j, l))
		}
	}
	return nil
}

// DecodeColumns extracts the per-result column selections from a solution
// of a projection-enabled encoding. Row j lists the columns present in the
// outer operand of join j; row J is the final result.
func (e *Encoding) DecodeColumns(sol *milp.Solution) [][]bool {
	if e.CLO == nil {
		return nil
	}
	out := make([][]bool, len(e.CLO))
	for j := range e.CLO {
		out[j] = make([]bool, len(e.CLO[j]))
		for l, v := range e.CLO[j] {
			out[j][l] = sol.Value(v) > 0.5
		}
	}
	return out
}
