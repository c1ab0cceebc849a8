package milp

import "milpjoin/internal/sparse"

// TripletMatrix is the reference for the constraint matrix Compile writes:
// the same equilibrated terms and identity block, assembled entry by entry
// in a sparse.Triplet and compressed, which sorts each column, sums
// duplicates and drops exact zeros.
func (m *Model) TripletMatrix() *sparse.CSC {
	n, rows := m.NumVars(), m.NumConstrs()
	eq := m.equilibrate()
	tr := sparse.NewTriplet(rows, n+rows)
	for i, con := range m.constrs {
		for k, v := range con.expr.vars {
			tr.Add(i, int(v), eq.coefs[i][k])
		}
		tr.Add(i, n+i, 1)
	}
	return tr.Compress()
}
