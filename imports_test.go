package milpjoin_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPresolveOffTheSolvePath holds the decision that presolve is not part
// of any solve: on join-ordering encodings it removes nothing, so no program
// code may import it. The package stays only for the benchmark's staged
// replay (bench/), which still times a presolve span.
func TestPresolveOffTheSolvePath(t *testing.T) {
	const pkg = "milpjoin/internal/presolve"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "bench", filepath.Join("internal", "presolve"):
				return filepath.SkipDir
			}
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
				t.Errorf("%s imports %s. Presolve is off the solve path; only bench/ may use it, "+
					"until a [benchmark] change drops the replay's presolve span and deletes the package", path, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
