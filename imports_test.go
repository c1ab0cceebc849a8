package milpjoin_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// nonTestImports parses every non-test Go file of the repository, bench/
// included, and returns each file's import paths keyed by its
// slash-separated path from the repository root.
func nonTestImports(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
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
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(p)
		out[key] = []string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			out[key] = append(out[key], ip)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPresolveOffTheSolvePath holds the decision that presolve is not part
// of any solve: on join-ordering encodings it removes nothing, so no program
// code may import it. The package stays only for the benchmark's staged
// replay (bench/), which still times a presolve span.
func TestPresolveOffTheSolvePath(t *testing.T) {
	const pkg = "milpjoin/internal/presolve"
	for file, imps := range nonTestImports(t) {
		if strings.HasPrefix(file, "bench/") || strings.HasPrefix(file, "internal/presolve/") {
			continue
		}
		for _, ip := range imps {
			if ip == pkg {
				t.Errorf("%s imports %s. Presolve is off the solve path; only bench/ may use it, "+
					"until a [benchmark] change drops the replay's presolve span and deletes the package", file, pkg)
			}
		}
	}
}

// TestHybridOffTheMILP holds the decision that the hybrid decomposer solves
// every partition by the left-deep DP: internal/decomp imports no package of
// the MILP stack.
func TestHybridOffTheMILP(t *testing.T) {
	milp := []string{"milpjoin/internal/core", "milpjoin/internal/bb", "milpjoin/internal/milp", "milpjoin/internal/simplex"}
	for file, imps := range nonTestImports(t) {
		if !strings.HasPrefix(file, "internal/decomp/") {
			continue
		}
		for _, ip := range imps {
			for _, pkg := range milp {
				if ip == pkg {
					t.Errorf("%s imports %s; every hybrid partition is solved by dp.OptimizeLeftDeep", file, pkg)
				}
			}
		}
	}
}

// TestNoOrphanInternalPackages fails on an internal package that only its
// own tests use: every internal/ directory with non-test code must be
// imported by a non-test file outside it. The benchmark module counts as
// an importer.
func TestNoOrphanInternalPackages(t *testing.T) {
	files := nonTestImports(t)
	imported := map[string]bool{} // import path → imported from another directory
	for file, imps := range files {
		for _, ip := range imps {
			if ip != "milpjoin/"+path.Dir(file) {
				imported[ip] = true
			}
		}
	}
	var orphans []string
	for file := range files {
		if dir := path.Dir(file); strings.HasPrefix(dir, "internal/") && !imported["milpjoin/"+dir] {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for i, dir := range orphans {
		if i == 0 || orphans[i-1] != dir {
			t.Errorf("%s is imported by no non-test file outside it; delete it or give it a caller", dir)
		}
	}
}
