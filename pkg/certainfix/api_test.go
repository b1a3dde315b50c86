package certainfix_test

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the package source")

// TestPublicAPI pins the exported surface of pkg/certainfix: every
// exported const, var, type, func and method is rendered as one line and
// the sorted list must equal testdata/api.txt. Growing or shrinking the
// surface is then an explicit, reviewable diff of that file
// (go test ./pkg/certainfix -run TestPublicAPI -update rewrites it).
func TestPublicAPI(t *testing.T) {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := doc.NewFromFiles(fset, files, "repro/pkg/certainfix")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				if ast.IsExported(name) {
					lines = append(lines, kind+" "+name)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			sig := strings.TrimPrefix(types.ExprString(f.Decl.Type), "func")
			recv := ""
			if f.Decl.Recv != nil {
				recv = "(" + types.ExprString(f.Decl.Recv.List[0].Type) + ") "
			}
			lines = append(lines, "func "+recv+f.Name+sig)
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		line := "type " + typ.Name + " "
		if spec.Assign.IsValid() {
			line += "= "
		}
		if st, ok := spec.Type.(*ast.StructType); ok {
			// doc.NewFromFiles already dropped the unexported fields.
			var fields []string
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fields = append(fields, name.Name+" "+types.ExprString(f.Type))
				}
			}
			line += "struct{ " + strings.Join(fields, "; ") + " }"
		} else {
			line += types.ExprString(spec.Type)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/api.txt"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s (rerun with -update if intended):\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
