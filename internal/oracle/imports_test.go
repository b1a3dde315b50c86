package oracle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTestsImportOracle holds the package's contract: no non-test Go
// file outside internal/oracle, in the module or in the bench module
// beside it, imports repro/internal/oracle. An oracle on a request path
// would be a slow path there, and a test that checks code against itself.
func TestOnlyTestsImportOracle(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	self := filepath.Join(root, "internal", "oracle")
	fset := token.NewFileSet()
	walked := map[string]bool{} // top-level directories holding a parsed file
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == self || (path != root && strings.HasPrefix(d.Name(), ".")) {
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
		rel, _ := filepath.Rel(root, path)
		walked[strings.Split(filepath.ToSlash(rel), "/")[0]] = true
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/oracle" {
				t.Errorf("%s imports %s: only _test.go files may", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"bench", "cmd", "examples", "internal", "pkg"} {
		if !walked[dir] {
			t.Errorf("no non-test Go file parsed under %s/: the walk misses part of the tree", dir)
		}
	}
}

// TestOraclesDoNotProbe holds the other half of the contract: the oracles
// read Dm's cells and decide t[X] = tm[Xm] by a scan of their own, so no
// non-test file of this package calls one of the master's probes. An
// oracle that asked the index it checks could not catch a bug in it.
func TestOraclesDoNotProbe(t *testing.T) {
	probes := map[string]bool{"AppendRHSValues": true, "MatchIDs": true, "CompatibleExists": true, "PatternSupported": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && probes[sel.Sel.Name] {
					t.Errorf("%s calls the master probe %s", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no non-test Go file parsed")
	}
}
