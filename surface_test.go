package milpjoin_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"milpjoin/internal/bb"
	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/decomp"
	"milpjoin/internal/dp"
	"milpjoin/internal/exec"
	"milpjoin/internal/heuristic"
	"milpjoin/internal/presolve"
	"milpjoin/internal/simplex"
	"milpjoin/internal/sparse"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
	"milpjoin/joinorder/cluster"
	"milpjoin/joinorder/server"
)

// TestSettableSurfaceDocumented holds DESIGN.md's "Settable surface" table
// to the code, so that neither can drift from the other: every exported
// field of the audited structs (wire types with their JSON tag), every
// registered strategy, every flag of the three commands and every endpoint
// has exactly one row with a verdict, every row names something that
// exists, and every non-test caller it cites is a function or method
// declared in the named file.
func TestSettableSurfaceDocumented(t *testing.T) {
	want := map[string]bool{}
	for _, s := range []struct {
		name string
		v    any
		wire bool
	}{
		{"joinorder.Options", joinorder.Options{}, false},
		{"joinorder.Budget", joinorder.Budget{}, false},
		{"joinorder.ExecOptions", joinorder.ExecOptions{}, false},
		{"cache.Config", cache.Config{}, false},
		{"persist.Config", persist.Config{}, false},
		{"cluster.Config", cluster.Config{}, false},
		{"server.Config", server.Config{}, false},
		{"server.OptimizeRequest", server.OptimizeRequest{}, true},
		{"server.BudgetRequest", server.BudgetRequest{}, true},
		{"server.BatchRequest", server.BatchRequest{}, true},
		{"core.Options", core.Options{}, false},
		{"bb.Params", bb.Params{}, false},
		{"simplex.Options", simplex.Options{}, false},
		{"presolve.Options", presolve.Options{}, false},
		{"sparse.FactorOptions", sparse.FactorOptions{}, false},
		{"heuristic.Options", heuristic.Options{}, false},
		{"decomp.Options", decomp.Options{}, false},
		{"dp.Options", dp.Options{}, false},
		{"dp.ConvOptions", dp.ConvOptions{}, false},
		{"workload.Config", workload.Config{}, false},
		{"cost.Params", cost.Params{}, false},
		{"exec.StreamOptions", exec.StreamOptions{}, false},
		{"exec.AdaptiveOptions", exec.AdaptiveOptions{}, false},
	} {
		typ := reflect.TypeOf(s.v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			key := "`" + s.name + "." + f.Name + "`"
			if s.wire {
				tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				key += " (`" + tag + "`)"
			}
			want[key] = true
		}
	}
	for _, name := range joinorder.Strategies() {
		want["strategy `"+name+"`"] = true
	}
	flagDef := regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
	for _, cmd := range []string{"joinopt", "joinoptd", "figures"} {
		for _, m := range flagDef.FindAllStringSubmatch(readFile(t, "cmd/"+cmd+"/main.go"), -1) {
			want["`"+cmd+" -"+m[1]+"`"] = true
		}
	}
	route := regexp.MustCompile(`HandleFunc\("([A-Z]+) ([^"]*)"(\s*\+\s*cluster\.EntryPath)?`)
	for _, m := range route.FindAllStringSubmatch(readFile(t, "joinorder/server/server.go"), -1) {
		path := m[2]
		if m[3] != "" {
			path += cluster.EntryPath
		}
		want["`"+m[1]+" "+path+"`"] = true
	}

	verdict := regexp.MustCompile(`^\([abcd]\)`)
	funcs := declaredFuncs{}
	got := map[string]bool{}
	for _, row := range surfaceRows(t) {
		cells := strings.Split(strings.Trim(row, "|"), "|")
		if len(cells) != 6 {
			t.Errorf("row %q has %d cells, want 6", row, len(cells))
			continue
		}
		key := strings.TrimSpace(cells[0])
		if got[key] {
			t.Errorf("%s has two rows", key)
		}
		got[key] = true
		if !verdict.MatchString(strings.TrimSpace(cells[5])) {
			t.Errorf("%s: verdict %q does not start with (a), (b), (c) or (d)", key, strings.TrimSpace(cells[5]))
		}
		if err := funcs.check(strings.TrimSpace(cells[2])); err != "" {
			t.Errorf("%s: non-test caller %s", key, err)
		}
	}
	var missing, stale []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("%s has no row in DESIGN.md's settable-surface table", k)
	}
	for _, k := range stale {
		t.Errorf("DESIGN.md's settable-surface table has a row for %s, which does not exist", k)
	}
}

// callerCell is a "Non-test caller" cell that names a function: a Go file
// from the repository root, then the function, or the method as
// Receiver.Method.
var callerCell = regexp.MustCompile("^`([^`]+\\.go)` `((?:[A-Za-z_]\\w*\\.)?[A-Za-z_]\\w*)`$")

// declaredFuncs caches, per Go file, the functions and methods it declares.
type declaredFuncs map[string]map[string]bool

// check returns why a caller cell does not name a declared function, or ""
// when it does or names no caller ("—").
func (d declaredFuncs) check(cell string) string {
	if strings.HasPrefix(cell, "—") {
		return ""
	}
	m := callerCell.FindStringSubmatch(cell)
	if m == nil {
		return fmt.Sprintf("%q is not a Go file and a function", cell)
	}
	decls, ok := d[m[1]]
	if !ok {
		f, err := parser.ParseFile(token.NewFileSet(), m[1], nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Sprintf("%q: %v", cell, err)
		}
		decls = map[string]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			decls[name] = true
		}
		d[m[1]] = decls
	}
	if !decls[m[2]] {
		return fmt.Sprintf("%q: %s declares no %s", cell, m[1], m[2])
	}
	return ""
}

// surfaceRows returns the body rows of the table in DESIGN.md's "Settable
// surface" section.
func surfaceRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	in := false
	for _, line := range strings.Split(readFile(t, "DESIGN.md"), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = line == "## Settable surface"
		case in && strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| Setting |"):
			rows = append(rows, line)
		}
	}
	if len(rows) == 0 {
		t.Fatal(`DESIGN.md has no "## Settable surface" table`)
	}
	return rows
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
