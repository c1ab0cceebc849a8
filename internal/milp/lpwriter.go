package milp

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// WriteLP renders the model in CPLEX LP file format, which most MILP tools
// can read. Intended for debugging and for exporting instances.
func (m *Model) WriteLP(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if m.Name != "" {
		fmt.Fprintf(bw, "\\ %s\n", m.Name)
	}
	fmt.Fprintln(bw, "Minimize")
	fmt.Fprint(bw, " obj:")
	wrote := false
	for j, c := range m.obj {
		if c == 0 {
			continue
		}
		writeTerm(bw, c, m.VarName(Var(j)), !wrote)
		wrote = true
	}
	if !wrote {
		fmt.Fprint(bw, " 0")
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "Subject To")
	for i, name := range m.rowNames {
		if name == "" {
			name = fmt.Sprintf("c%d", i)
		}
		fmt.Fprintf(bw, " %s:", name)
		row := m.row(i)
		for k, t := range row {
			writeTerm(bw, t.c, m.VarName(t.v), k == 0)
		}
		if len(row) == 0 {
			fmt.Fprint(bw, " 0")
		}
		fmt.Fprintf(bw, " %s %g\n", m.sense[i], m.rhs[i])
	}

	fmt.Fprintln(bw, "Bounds")
	for j := range m.lb {
		name := m.VarName(Var(j))
		l, u := m.lb[j], m.ub[j]
		switch {
		case math.IsInf(l, -1) && math.IsInf(u, 1):
			fmt.Fprintf(bw, " %s free\n", name)
		case math.IsInf(l, -1):
			fmt.Fprintf(bw, " -inf <= %s <= %g\n", name, u)
		case math.IsInf(u, 1):
			fmt.Fprintf(bw, " %g <= %s\n", l, name)
		default:
			fmt.Fprintf(bw, " %g <= %s <= %g\n", l, name, u)
		}
	}

	var generals, binaries []string
	for j, t := range m.vtype {
		switch t {
		case Integer:
			generals = append(generals, m.VarName(Var(j)))
		case Binary:
			binaries = append(binaries, m.VarName(Var(j)))
		}
	}
	if len(generals) > 0 {
		fmt.Fprintln(bw, "Generals")
		for _, n := range generals {
			fmt.Fprintf(bw, " %s\n", n)
		}
	}
	if len(binaries) > 0 {
		fmt.Fprintln(bw, "Binaries")
		for _, n := range binaries {
			fmt.Fprintf(bw, " %s\n", n)
		}
	}
	fmt.Fprintln(bw, "End")
	return bw.Flush()
}

func writeTerm(w io.Writer, c float64, name string, first bool) {
	switch {
	case first && c == 1:
		fmt.Fprintf(w, " %s", name)
	case first && c == -1:
		fmt.Fprintf(w, " - %s", name)
	case first:
		fmt.Fprintf(w, " %g %s", c, name)
	case c == 1:
		fmt.Fprintf(w, " + %s", name)
	case c == -1:
		fmt.Fprintf(w, " - %s", name)
	case c < 0:
		fmt.Fprintf(w, " - %g %s", -c, name)
	default:
		fmt.Fprintf(w, " + %g %s", c, name)
	}
}
