package milp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMPS renders the model in free-form MPS, the lingua franca of MILP
// solvers. Together with ReadMPS it allows instances to round-trip through
// files and be exchanged with external tools.
func (m *Model) WriteMPS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := m.Name
	if name == "" {
		name = "MODEL"
	}
	fmt.Fprintf(bw, "NAME %s\n", sanitizeMPSName(name))

	rowNames := make([]string, m.NumConstrs())
	for i, n := range m.rowNames {
		if n == "" {
			rowNames[i] = fmt.Sprintf("c%d", i)
		} else {
			rowNames[i] = sanitizeMPSName(n)
		}
	}
	colName := func(j Var) string { return sanitizeMPSName(m.VarName(j)) }

	// The objective row needs a name no constraint uses; "obj" is the
	// convention, extended until it is free (a constraint may legally be
	// named "obj").
	objRow := "obj"
	{
		taken := make(map[string]bool, len(rowNames))
		for _, n := range rowNames {
			taken[n] = true
		}
		for taken[objRow] {
			objRow += "_"
		}
	}

	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintf(bw, " N %s\n", objRow)
	for i, sense := range m.sense {
		var tag string
		switch sense {
		case LE:
			tag = "L"
		case GE:
			tag = "G"
		case EQ:
			tag = "E"
		}
		fmt.Fprintf(bw, " %s %s\n", tag, rowNames[i])
	}

	// Column-major entries: the objective, then the constraint
	// coefficients from the row store's transpose.
	colPtr, rowInd, val := m.columns(0, nil, nil, nil)
	fmt.Fprintln(bw, "COLUMNS")
	inInt := false
	marker := 0
	for j := 0; j < m.NumVars(); j++ {
		isInt := m.IsIntegral(Var(j))
		if isInt && !inInt {
			fmt.Fprintf(bw, " MARKER%d 'MARKER' 'INTORG'\n", marker)
			marker++
			inInt = true
		}
		if !isInt && inInt {
			fmt.Fprintf(bw, " MARKER%d 'MARKER' 'INTEND'\n", marker)
			marker++
			inInt = false
		}
		cn := colName(Var(j))
		switch c := m.obj[j]; {
		case c != 0:
			fmt.Fprintf(bw, " %s %s %s\n", cn, objRow, formatMPSNum(c))
		case colPtr[j] == colPtr[j+1]:
			// MPS requires every column to appear; emit a zero
			// objective entry.
			fmt.Fprintf(bw, " %s %s 0\n", cn, objRow)
		}
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			fmt.Fprintf(bw, " %s %s %s\n", cn, rowNames[rowInd[p]], formatMPSNum(val[p]))
		}
	}
	if inInt {
		fmt.Fprintf(bw, " MARKER%d 'MARKER' 'INTEND'\n", marker)
	}

	fmt.Fprintln(bw, "RHS")
	for i, rhs := range m.rhs {
		if rhs != 0 {
			fmt.Fprintf(bw, " rhs %s %s\n", rowNames[i], formatMPSNum(rhs))
		}
	}
	if c := m.ObjConstant(); c != 0 {
		// Convention: objective constant as negated RHS of the
		// objective row.
		fmt.Fprintf(bw, " rhs %s %s\n", objRow, formatMPSNum(-c))
	}

	fmt.Fprintln(bw, "BOUNDS")
	for j := 0; j < m.NumVars(); j++ {
		l, u := m.Bounds(Var(j))
		cn := colName(Var(j))
		switch {
		case m.VarType(Var(j)) == Binary && l == 0 && u == 1:
			fmt.Fprintf(bw, " BV bnd %s\n", cn)
		case math.IsInf(l, -1) && math.IsInf(u, 1):
			fmt.Fprintf(bw, " FR bnd %s\n", cn)
		default:
			if math.IsInf(l, -1) {
				fmt.Fprintf(bw, " MI bnd %s\n", cn)
			} else if l != 0 {
				fmt.Fprintf(bw, " LO bnd %s %s\n", cn, formatMPSNum(l))
			}
			if !math.IsInf(u, 1) {
				fmt.Fprintf(bw, " UP bnd %s %s\n", cn, formatMPSNum(u))
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

// ReadMPS parses a free-form MPS file into a Model.
func ReadMPS(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	m := NewModel("")
	type rowInfo struct {
		sense Sense
		expr  LinExpr
		rhs   float64
	}
	rows := map[string]*rowInfo{}
	var rowOrder []string
	vars := map[string]Var{}
	objCoef := map[string]float64{}
	objRHS := 0.0
	intMode := false

	getVar := func(name string) Var {
		if v, ok := vars[name]; ok {
			return v
		}
		vt := Continuous
		if intMode {
			vt = Integer
		}
		v := m.AddVar(0, math.Inf(1), 0, vt, name)
		vars[name] = v
		return v
	}

	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "\t") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				// Whitespace other than the trimmed set (e.g. a lone
				// form feed) yields no fields.
				continue
			}
			section = strings.ToUpper(fields[0])
			if section == "NAME" && len(fields) > 1 {
				m.Name = fields[1]
			}
			if section == "ENDATA" {
				break
			}
			continue
		}
		fields := strings.Fields(line)
		switch section {
		case "ROWS":
			if len(fields) != 2 {
				return nil, fmt.Errorf("milp: MPS line %d: bad ROWS entry", lineNo)
			}
			tag, name := strings.ToUpper(fields[0]), fields[1]
			// MPS row names are unique; a duplicate would silently merge
			// two rows' coefficients on re-read.
			if _, dup := rows[name]; dup {
				return nil, fmt.Errorf("milp: MPS line %d: duplicate row %q", lineNo, name)
			}
			switch tag {
			case "N":
				// objective row; remembered implicitly as "obj name"
				rows[name] = nil
			case "L", "G", "E":
				ri := &rowInfo{}
				switch tag {
				case "L":
					ri.sense = LE
				case "G":
					ri.sense = GE
				case "E":
					ri.sense = EQ
				}
				rows[name] = ri
				rowOrder = append(rowOrder, name)
			default:
				return nil, fmt.Errorf("milp: MPS line %d: unknown row type %q", lineNo, tag)
			}
		case "COLUMNS":
			if len(fields) >= 3 && strings.Contains(line, "'MARKER'") {
				if strings.Contains(line, "'INTORG'") {
					intMode = true
				} else if strings.Contains(line, "'INTEND'") {
					intMode = false
				}
				continue
			}
			if len(fields) < 3 || len(fields)%2 == 0 {
				return nil, fmt.Errorf("milp: MPS line %d: bad COLUMNS entry", lineNo)
			}
			v := getVar(fields[0])
			for k := 1; k+1 < len(fields); k += 2 {
				rowName := fields[k]
				coef, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("milp: MPS line %d: %v", lineNo, err)
				}
				ri, ok := rows[rowName]
				if !ok {
					return nil, fmt.Errorf("milp: MPS line %d: unknown row %q", lineNo, rowName)
				}
				if ri == nil { // objective row
					objCoef[fields[0]] += coef
				} else {
					ri.expr = ri.expr.Add(v, coef)
				}
			}
		case "RHS":
			if len(fields) < 3 {
				return nil, fmt.Errorf("milp: MPS line %d: bad RHS entry", lineNo)
			}
			for k := 1; k+1 < len(fields); k += 2 {
				rowName := fields[k]
				val, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("milp: MPS line %d: %v", lineNo, err)
				}
				ri, ok := rows[rowName]
				if !ok {
					return nil, fmt.Errorf("milp: MPS line %d: unknown row %q", lineNo, rowName)
				}
				if ri == nil {
					objRHS = val
				} else {
					ri.rhs = val
				}
			}
		case "BOUNDS":
			if len(fields) < 3 {
				return nil, fmt.Errorf("milp: MPS line %d: bad BOUNDS entry", lineNo)
			}
			tag := strings.ToUpper(fields[0])
			v := getVar(fields[2])
			l, u := m.Bounds(v)
			var val float64
			if len(fields) >= 4 {
				var err error
				val, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("milp: MPS line %d: %v", lineNo, err)
				}
			}
			switch tag {
			case "UP":
				u = val
			case "LO":
				l = val
			case "FX":
				l, u = val, val
			case "FR":
				l, u = math.Inf(-1), math.Inf(1)
			case "MI":
				l = math.Inf(-1)
			case "PL":
				u = math.Inf(1)
			case "BV":
				l, u = 0, 1
			default:
				return nil, fmt.Errorf("milp: MPS line %d: unknown bound type %q", lineNo, tag)
			}
			m.SetBounds(v, l, u)
		case "RANGES":
			return nil, fmt.Errorf("milp: MPS line %d: RANGES section not supported", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for name, c := range objCoef {
		m.SetObjCoeff(vars[name], c)
	}
	m.AddObjConstant(-objRHS)
	for _, name := range rowOrder {
		ri := rows[name]
		m.AddConstr(ri.expr, ri.sense, ri.rhs, name)
	}
	return m, nil
}

func sanitizeMPSName(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t':
			return '_'
		default:
			return r
		}
	}, s)
}

func formatMPSNum(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}
