package verifiedft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeVariantTable keeps README's *Detector variants* table in step
// with the code: its names are Variants(), in order, and each row's
// constant is an exported constant of this package whose value is the
// row's name.
func TestReadmeVariantTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Detector variants\n")
	if !ok {
		t.Fatal("README.md has no \"## Detector variants\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	consts := packageConsts(t)
	var names []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue // not a table row, or the header and its rule
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		constant := strings.Trim(strings.TrimSpace(cells[2]), "`")
		names = append(names, name)
		ident, qualified := strings.CutPrefix(constant, "verifiedft.")
		value, declared := consts[ident]
		switch {
		case !qualified || !declared || !ast.IsExported(ident):
			t.Errorf("row %s: %q is not an exported constant of package verifiedft", name, constant)
		case value != name:
			t.Errorf("row %s: %s = %q", name, constant, value)
		}
	}
	if !reflect.DeepEqual(names, Variants()) {
		t.Errorf("README variant table lists %v, Variants() = %v", names, Variants())
	}
}

// packageConsts maps each string constant declared in this package's
// non-test files to its value.
func packageConsts(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						out[name.Name], _ = strconv.Unquote(lit.Value)
					}
				}
			}
		}
	}
	return out
}
