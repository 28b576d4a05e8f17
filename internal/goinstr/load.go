package goinstr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Load parses and type-checks the single-directory Go package at dir:
// go/parser for syntax, and for dependencies the export data the
// compiler already wrote — one `go list -export` names the files, run
// in modDir (the shadow module, whose fixed part Load writes once the
// package has parsed, so a rejected package leaves nothing behind) with
// the environment and flags of the `go build` that follows, so both hit
// the same build-cache entries and no go.mod of the user's is in reach.
// This needs the go tool vft-go cannot work without anyway, and no
// network; on a cold build cache the list compiles the imported
// packages once, which the build then finds cached. Comments are not
// parsed — the rewriter regenerates the files and mixing moved comments
// with synthesized nodes produces garbled output.
func Load(dir string, includeTests bool, modDir string) (*Package, error) {
	pkg, err := parse(dir, includeTests)
	if err != nil {
		return nil, err
	}
	if err := emitModule(modDir); err != nil {
		return nil, err
	}
	// No imports, no call: an empty package list would make the go tool
	// list modDir itself.
	var exports map[string]string
	if imports := pkg.imports(); len(imports) > 0 {
		t0 := time.Now()
		if exports, err = listExports(modDir, imports); err != nil {
			return nil, err
		}
		pkg.goList = time.Since(t0)
	}
	if err := pkg.typeCheck(exportImporter(pkg.Fset, exports)); err != nil {
		return nil, err
	}
	return pkg, nil
}

// parse reads the package's files into a Package that is not yet
// type-checked, rejecting what the front-end does not handle: several
// packages in one directory, external test packages, non-stdlib imports.
func parse(dir string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("goinstr: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("goinstr: no Go files in %s", dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("goinstr: %w", err)
		}
		name := f.Name.Name
		base := strings.TrimSuffix(name, "_test")
		if pkgName == "" {
			pkgName = base
		} else if base != pkgName {
			return nil, fmt.Errorf("goinstr: %s declares package %s, want %s (one package per directory)", n, name, pkgName)
		}
		if name != pkgName {
			return nil, fmt.Errorf("goinstr: external test package %s (%s) is not supported", name, n)
		}
		files = append(files, f)
	}

	for i, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !stdlibImport(path) {
				return nil, fmt.Errorf("goinstr: %s imports %q; only standard-library imports are supported", names[i], path)
			}
		}
	}
	return &Package{Fset: fset, Files: files, Names: names, Dir: dir}, nil
}

// imports returns the distinct import paths of the package's files,
// sorted. "unsafe" is left out: it has no export data, and the importer
// answers for it without a lookup.
func (p *Package) imports() []string {
	seen := map[string]bool{"unsafe": true}
	var paths []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	sort.Strings(paths)
	return paths
}

// typeCheck fills in Pkg and Info.
func (p *Package) typeCheck(imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.Files[0].Name.Name, p.Fset, p.Files, info)
	if err != nil {
		return fmt.Errorf("goinstr: type checking: %w", err)
	}
	p.Pkg, p.Info = pkg, info
	return nil
}

// listExports asks the go tool where the compiled export data of the
// given packages and their dependencies is, compiling whatever the build
// cache does not hold yet.
func listExports(modDir string, imports []string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, imports...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modDir
	cmd.Env = offlineEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("goinstr: go list -export: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportImporter imports packages from the export data files listExports
// found. Export data is only readable by the toolchain release that
// wrote it, so a failed import names both releases involved: the one
// vft-go was built with (its go/importer reads the file) and the go tool
// on PATH (its compiler wrote it).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("go list -export named no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		pkg, err := gc.Import(path)
		if err != nil {
			return nil, fmt.Errorf("%w [importing %q: vft-go was built with %s, the go tool on PATH is %s]",
				err, path, runtime.Version(), toolVersion())
		}
		return pkg, nil
	})
}

// toolVersion is the release of the go tool on PATH, for diagnostics.
func toolVersion() string {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Env = offlineEnv()
	out, err := cmd.Output()
	if err != nil {
		return fmt.Sprintf("unknown (go env GOVERSION: %v)", err)
	}
	return strings.TrimSpace(string(out))
}

// stdlibImport reports whether path names a standard-library package:
// the first path element has no dot (no domain), the convention the go
// tool itself relies on.
func stdlibImport(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".")
}
