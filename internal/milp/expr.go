package milp

import "sort"

// LinExpr is a linear expression: a weighted sum of variables. The zero
// value is an empty expression; build expressions with Expr and Add.
type LinExpr struct {
	vars  []Var
	coefs []float64
}

// Expr starts a linear expression from alternating (Var, coefficient)
// pairs, e.g. Expr(x, 1, y, -2) for x − 2y.
func Expr(pairs ...any) LinExpr {
	if len(pairs)%2 != 0 {
		panic("milp: Expr requires (Var, coefficient) pairs")
	}
	var e LinExpr
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
// receiver is not modified if its backing arrays must grow; callers should
// use the returned value.
func (e LinExpr) Add(v Var, c float64) LinExpr {
	e.vars = append(e.vars, v)
	e.coefs = append(e.coefs, c)
	return e
}

// AddExpr appends all terms of o.
func (e LinExpr) AddExpr(o LinExpr) LinExpr {
	e.vars = append(e.vars, o.vars...)
	e.coefs = append(e.coefs, o.coefs...)
	return e
}

// Terms invokes f for each stored term (duplicates possible before
// compaction).
func (e LinExpr) Terms(f func(v Var, c float64)) {
	for i, v := range e.vars {
		f(v, e.coefs[i])
	}
}

// NumTerms returns the number of stored terms.
func (e LinExpr) NumTerms() int { return len(e.vars) }

// compacted returns an equivalent expression with duplicate variables
// merged, zero coefficients dropped, and terms sorted by variable index.
func (e LinExpr) compacted() LinExpr {
	if len(e.vars) == 0 {
		return e
	}
	if e.isCompact() {
		return LinExpr{vars: append([]Var(nil), e.vars...), coefs: append([]float64(nil), e.coefs...)}
	}
	type term struct {
		v Var
		c float64
	}
	ts := make([]term, len(e.vars))
	for i := range e.vars {
		ts[i] = term{e.vars[i], e.coefs[i]}
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a].v < ts[b].v })
	out := LinExpr{vars: make([]Var, 0, len(ts)), coefs: make([]float64, 0, len(ts))}
	i := 0
	for i < len(ts) {
		v := ts[i].v
		c := ts[i].c
		i++
		for i < len(ts) && ts[i].v == v {
			c += ts[i].c
			i++
		}
		if c != 0 {
			out.vars = append(out.vars, v)
			out.coefs = append(out.coefs, c)
		}
	}
	return out
}

// isCompact reports whether compacted would keep e's terms as they are:
// strictly ascending variables and no zero coefficient.
func (e LinExpr) isCompact() bool {
	for i, c := range e.coefs {
		if c == 0 || (i > 0 && e.vars[i] <= e.vars[i-1]) {
			return false
		}
	}
	return true
}

// Sum builds the expression Σ v_i (all coefficients 1).
func Sum(vars ...Var) LinExpr {
	e := LinExpr{vars: make([]Var, 0, len(vars)), coefs: make([]float64, 0, len(vars))}
	for _, v := range vars {
		e = e.Add(v, 1)
	}
	return e
}
