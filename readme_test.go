package verifiedft

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// TestReadmeOptions keeps README's options in step with the code: every
// With… name README mentions is an exported function of this package, and
// every exported With… function of this package is in README, so adding or
// deleting an option cannot leave the docs stale.
func TestReadmeOptions(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	option := regexp.MustCompile(`\bWith[A-Z]\w*`)
	named := map[string]bool{}
	for _, name := range option.FindAllString(string(readme), -1) {
		named[name] = true
	}
	funcs := map[string]bool{}
	for _, f := range packageFiles(t) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && option.MatchString(fd.Name.Name) {
				funcs[fd.Name.Name] = true
			}
		}
	}
	for name := range named {
		if !funcs[name] {
			t.Errorf("README.md names %s, which is not an exported function of package verifiedft", name)
		}
	}
	for name := range funcs {
		if !named[name] {
			t.Errorf("option %s is missing from README.md", name)
		}
	}
}

// packageFiles parses this package's non-test files.
func packageFiles(t *testing.T) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// packageConsts maps each string constant declared in this package's
// non-test files to its value.
func packageConsts(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range packageFiles(t) {
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
