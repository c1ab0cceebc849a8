package milpjoin_test

import (
	"path"
	"sort"
	"strings"
	"testing"
)

// TestPresolveOffTheSolvePath holds the decision that presolve is not part
// of any solve: on join-ordering encodings it removes nothing, so no program
// code may import it. The package stays only for the benchmark's staged
// replay (bench/), which still times a presolve span.
func TestPresolveOffTheSolvePath(t *testing.T) {
	const pkg = "milpjoin/internal/presolve"
	for file, f := range packageIndex(t).files {
		if strings.HasPrefix(file, "bench/") || strings.HasPrefix(file, "internal/presolve/") {
			continue
		}
		for _, ip := range f.imports {
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
	for file, f := range packageIndex(t).files {
		if !strings.HasPrefix(file, "internal/decomp/") {
			continue
		}
		for _, ip := range f.imports {
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
	files := packageIndex(t).files
	imported := map[string]bool{} // import path → imported from another directory
	for file, f := range files {
		for _, ip := range f.imports {
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
