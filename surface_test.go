package milpjoin_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// exists, every non-test caller it cites is a function or method declared
// in the named file, and every (d) verdict names an open ROADMAP item.
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
		{"dp.BushyOptions", dp.BushyOptions{}, false},
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

	verdict := regexp.MustCompile(`^\(([abcd])\)(?: (\d+))?`)
	open := openItems(t)
	ix := packageIndex(t)
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
		switch v := verdict.FindStringSubmatch(strings.TrimSpace(cells[5])); {
		case v == nil:
			t.Errorf("%s: verdict %q does not start with (a), (b), (c) or (d)", key, strings.TrimSpace(cells[5]))
		case v[1] == "d" && !open[v[2]]:
			t.Errorf("%s: verdict (d) names ROADMAP item %q, which is not open", key, v[2])
		}
		if err := ix.checkCaller(strings.TrimSpace(cells[2])); err != "" {
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

// checkCaller returns why a caller cell does not name a function declared
// in a non-test Go file, or "" when it does or names no caller ("—").
func (ix *repoIndex) checkCaller(cell string) string {
	if strings.HasPrefix(cell, "—") {
		return ""
	}
	m := callerCell.FindStringSubmatch(cell)
	if m == nil {
		return fmt.Sprintf("%q is not a Go file and a function", cell)
	}
	f, ok := ix.files[m[1]]
	if !ok {
		return fmt.Sprintf("%q: %s is not a non-test Go file", cell, m[1])
	}
	if !f.funcs[m[2]] {
		return fmt.Sprintf("%q: %s declares no %s", cell, m[1], m[2])
	}
	return ""
}

// goFile is what the package index keeps of one non-test Go file.
type goFile struct {
	pkg     string          // package name
	imports []string        // import paths
	funcs   map[string]bool // functions, and methods as Receiver.Method
}

// repoIndex is one parse of every non-test Go file of the repository,
// bench/ included: per file its package, imports and functions, and per
// package name of this module (package main aside) every top-level name
// and every Type.Member — struct fields, interface methods and methods.
type repoIndex struct {
	files map[string]*goFile         // keyed by slash path from the root
	decls map[string]map[string]bool // package name → declared names
}

var loadIndex = sync.OnceValues(func() (*repoIndex, error) {
	ix := &repoIndex{files: map[string]*goFile{}, decls: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(p)
		gf := &goFile{pkg: f.Name.Name, funcs: map[string]bool{}}
		ix.files[key] = gf
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			gf.imports = append(gf.imports, ip)
		}
		// The benchmark is a module of its own, and a main package exports
		// nothing: neither names a package the documents may cite.
		cited := gf.pkg != "main" && !strings.HasPrefix(key, "bench/")
		decls := ix.decls[gf.pkg]
		if cited && decls == nil {
			decls = map[string]bool{}
			ix.decls[gf.pkg] = decls
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					name = typeName(decl.Recv.List[0].Type) + "." + name
				}
				gf.funcs[name] = true
				if cited {
					decls[name] = true
				}
			case *ast.GenDecl:
				if !cited {
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[n.Name] = true
						}
					case *ast.TypeSpec:
						decls[spec.Name.Name] = true
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						}
						for _, fl := range fields {
							if len(fl.Names) == 0 { // embedded
								decls[spec.Name.Name+"."+typeName(fl.Type)] = true
							}
							for _, n := range fl.Names {
								decls[spec.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	return ix, err
})

// packageIndex returns the repository's package index, parsed once per
// test binary.
func packageIndex(t *testing.T) *repoIndex {
	t.Helper()
	ix, err := loadIndex()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// typeName is the name of a receiver or embedded type: T of T, *T, T[K],
// pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
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
