package milp

import (
	"cmp"
	"slices"
)

// term is one coefficient of a linear expression: c·v.
type term struct {
	v Var
	c float64
}

// LinExpr is a linear expression: a weighted sum of variables. The zero
// value is an empty expression; build expressions with Expr and Add.
type LinExpr struct {
	terms []term
}

// Expr starts a linear expression from alternating (Var, coefficient)
// pairs, e.g. Expr(x, 1, y, -2) for x − 2y.
func Expr(pairs ...any) LinExpr {
	if len(pairs)%2 != 0 {
		panic("milp: Expr requires (Var, coefficient) pairs")
	}
	e := LinExpr{terms: make([]term, 0, len(pairs)/2)}
	for i := 0; i < len(pairs); i += 2 {
		v, ok := pairs[i].(Var)
		if !ok {
			panic("milp: Expr pair does not start with a Var")
		}
		c, ok := toFloat(pairs[i+1])
		if !ok {
			panic("milp: Expr coefficient is not numeric")
		}
		e = e.Add(v, c)
	}
	return e
}

func toFloat(x any) (float64, bool) {
	switch v := x.(type) {
	case float64:
		return v, true
	case float32:
		return float64(v), true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	default:
		return 0, false
	}
}

// Add appends the term c·v and returns the extended expression. The
// receiver is not modified if its backing array must grow; callers should
// use the returned value.
func (e LinExpr) Add(v Var, c float64) LinExpr {
	e.terms = append(e.terms, term{v, c})
	return e
}

// Reset returns an empty expression over e's storage, so that an expression
// built again and again grows only once. What is added to the result
// overwrites e's terms; use the returned value, not e.
func (e LinExpr) Reset() LinExpr { return LinExpr{terms: e.terms[:0]} }

// Terms invokes f for each stored term (duplicates possible before
// compaction).
func (e LinExpr) Terms(f func(v Var, c float64)) {
	for _, t := range e.terms {
		f(t.v, t.c)
	}
}

// NumTerms returns the number of stored terms.
func (e LinExpr) NumTerms() int { return len(e.terms) }

// compact sorts ts by variable, merges duplicate variables (summing their
// coefficients in sorted order) and drops zero coefficients, in place. It
// returns the length of the result.
func compact(ts []term) int {
	slices.SortFunc(ts, func(a, b term) int { return cmp.Compare(a.v, b.v) })
	k := 0
	for i := 0; i < len(ts); {
		t := ts[i]
		for i++; i < len(ts) && ts[i].v == t.v; i++ {
			t.c += ts[i].c
		}
		if t.c != 0 {
			ts[k] = t
			k++
		}
	}
	return k
}

// Sum builds the expression Σ v_i (all coefficients 1).
func Sum(vars ...Var) LinExpr {
	e := LinExpr{terms: make([]term, 0, len(vars))}
	for _, v := range vars {
		e = e.Add(v, 1)
	}
	return e
}
