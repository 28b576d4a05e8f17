package goinstr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Load parses and type-checks the single-directory Go package at dir:
// go/parser for syntax, and for dependencies the export data the
// compiler already wrote. Load first writes the shadow module's fixed
// part into modDir (once the package has parsed, so a rejected package
// leaves nothing behind); every go command then runs there, with the
// environment and flags of the `go build` that follows, so all of them
// hit the same build-cache entries and no go.mod of the user's is in
// reach. One `go list -export -deps` names the export files, compiling
// on a cold build cache whatever the build then finds cached, and Load
// records its answer in modDir: a later Load into the same module skips
// the list while that record still holds (see findExports). This needs
// the go tool vft-go cannot work without anyway, and no network.
// Comments are not parsed — the rewriter regenerates the files and
// mixing moved comments with synthesized nodes produces garbled output.
func Load(dir string, includeTests bool, modDir string) (*Package, error) {
	pkg, err := parse(dir, includeTests)
	if err != nil {
		return nil, err
	}
	if err := emitModule(modDir); err != nil {
		return nil, err
	}
	// No imports, no go command: an empty package list would make the go
	// tool list modDir itself, and the importer is never asked.
	var exports map[string]string
	goVersion := ""
	if imports := pkg.imports(); len(imports) > 0 {
		if exports, goVersion, err = pkg.findExports(modDir, imports); err != nil {
			return nil, err
		}
	}
	if err := pkg.typeCheck(exportImporter(pkg.Fset, exports, goVersion)); err != nil {
		return nil, err
	}
	return pkg, nil
}

// recordName is the file in the shadow module that holds the fingerprint
// and the `go list -export -deps` output of the last list run there.
const recordName = "vft-exports.json"

// exportRecord is what recordName holds.
type exportRecord struct {
	Env     map[string]string `json:"env"`     // goEnv's fingerprint
	Exports map[string]string `json:"exports"` // import path → export file
}

// findExports returns where the export data of imports and their
// dependencies is, and the release of the go tool on PATH for
// diagnostics. It trusts modDir's record when the fingerprint — the go
// tool's environment, toolchain release included — is the record's, and
// every import has a recorded export file that still exists. That is
// sound because an export file is a build-cache entry named by the hash
// of its contents: while it exists it holds what it held, and an
// unchanged toolchain and configuration would compile the same. The one
// change the fingerprint cannot see is an in-place edit of a release
// GOROOT. Otherwise it runs `go list` and replaces the record; a record
// that cannot be read or written is a miss, never an error.
func (p *Package) findExports(modDir string, imports []string) (map[string]string, string, error) {
	env, err := goEnv(modDir)
	goVersion := env["GOVERSION"]
	if err != nil {
		goVersion = fmt.Sprintf("unknown (go env: %v)", err)
	}
	if exports := readRecord(modDir, env, imports); exports != nil {
		return exports, goVersion, nil
	}
	t0 := time.Now()
	exports, err := listExports(modDir, imports)
	if err != nil {
		return nil, "", err
	}
	p.goList = time.Since(t0)
	writeRecord(modDir, env, exports)
	return exports, goVersion, nil
}

// goEnvs memoizes goEnv for the life of the process, keyed by the module
// directory and the exact environment the go command is given, so that
// Load's call serves Build's.
var goEnvs struct {
	sync.Mutex
	m map[string]map[string]string
}

// goEnv is `go env -json` in the shadow module, less GOGCCFLAGS, which
// names a fresh temp directory on every call: the toolchain and build
// configuration that export data and the linked binary depend on. It runs
// the go command once per module directory and environment; a failure is
// not remembered.
func goEnv(modDir string) (map[string]string, error) {
	environ := offlineEnv()
	key := strings.Join(append([]string{modDir}, environ...), "\x00")
	goEnvs.Lock()
	env, ok := goEnvs.m[key]
	goEnvs.Unlock()
	if ok {
		return maps.Clone(env), nil
	}
	cmd := exec.Command("go", "env", "-json")
	cmd.Dir = modDir
	cmd.Env = environ
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(out, &env); err != nil {
		return nil, err
	}
	delete(env, "GOGCCFLAGS")
	goEnvs.Lock()
	if goEnvs.m == nil {
		goEnvs.m = map[string]map[string]string{}
	}
	goEnvs.m[key] = env
	goEnvs.Unlock()
	return maps.Clone(env), nil
}

// releaseToolchain reports whether env names a release toolchain,
// go1.N…. A devel toolchain's GOROOT is a source tree that can change
// without its version changing, so its export data is never recorded.
func releaseToolchain(env map[string]string) bool {
	rest, ok := strings.CutPrefix(env["GOVERSION"], "go1.")
	return ok && rest != "" && rest[0] >= '0' && rest[0] <= '9'
}

// readRecord returns modDir's recorded exports if findExports may trust
// them for imports under env, and nil otherwise.
func readRecord(modDir string, env map[string]string, imports []string) map[string]string {
	if !releaseToolchain(env) {
		return nil
	}
	raw, err := os.ReadFile(filepath.Join(modDir, recordName))
	if err != nil {
		return nil
	}
	var rec exportRecord
	if json.Unmarshal(raw, &rec) != nil || !maps.Equal(rec.Env, env) {
		return nil
	}
	for _, path := range imports {
		file, ok := rec.Exports[path]
		if !ok {
			return nil
		}
		if _, err := os.Stat(file); err != nil {
			return nil
		}
	}
	return rec.Exports
}

// writeRecord replaces modDir's record with exports under env.
func writeRecord(modDir string, env, exports map[string]string) {
	if releaseToolchain(env) {
		replaceJSON(modDir, recordName, exportRecord{Env: env, Exports: exports})
	}
}

// replaceJSON replaces the file name in dir with v as JSON, through a temp
// file and a rename so that no reader sees half a record. A record that
// cannot be written is only a miss later, so failures are dropped.
func replaceJSON(dir, name string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		return
	}
	f, err := os.CreateTemp(dir, name+".*")
	if err != nil {
		return
	}
	_, err = f.Write(raw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
	}
}

// parse reads the package's files into a Package that is not yet
// type-checked, rejecting what the front-end does not handle: several
// packages in one directory, external test packages, non-stdlib imports.
func parse(dir string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("goinstr: %w", err)
	}
	// The files `go build` would compile: build.Default.MatchFile drops
	// names starting with "_" or ".", unmatched _GOOS/_GOARCH suffixes
	// and unsatisfied //go:build lines.
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("goinstr: %w", err)
		}
		if match {
			names = append(names, n)
		}
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

// exportImporter imports packages from the export data files findExports
// found. Export data is only readable by the toolchain release that
// wrote it, so a failed import names both releases involved: the one
// vft-go was built with (its go/importer reads the file) and goVersion,
// the go tool on PATH (its compiler wrote it).
func exportImporter(fset *token.FileSet, exports map[string]string, goVersion string) types.Importer {
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
				err, path, runtime.Version(), goVersion)
		}
		return pkg, nil
	})
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
