package goinstr

import (
	"go/importer"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func poolDir() string { return filepath.Join("..", "..", "bench", "testdata", "pool") }

// readTree returns every regular file under root, keyed by relative path.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// instrumentFromSource is Instrument as it was before export data: the
// same pipeline, with imports type-checked from source by the stdlib
// "source" importer. It is the reference the differential test holds
// Instrument to, and lives only here.
func instrumentFromSource(t *testing.T, dir string, opts Options) Stats {
	t.Helper()
	pkg, err := parse(dir, opts.IncludeTests)
	if err != nil {
		t.Fatal(err)
	}
	if err := emitModule(opts.OutDir); err != nil {
		t.Fatal(err)
	}
	if err := pkg.typeCheck(importer.ForCompiler(pkg.Fset, "source", nil)); err != nil {
		t.Fatal(err)
	}
	rw := newRewriter(pkg, Analyze(pkg), opts.Elide)
	rw.rewriteAll()
	if err := emitPackage(opts.OutDir, pkg, opts.IncludeTests); err != nil {
		t.Fatal(err)
	}
	return rw.stats
}

// TestExportDataMatchesSourceImporter: swapping the importer must not
// change one byte of any shadow module, nor a rewrite counter — on every
// corpus program and the benchmark's pool program, in both elision modes.
func TestExportDataMatchesSourceImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference importer type-checks the standard library from source")
	}
	dirs := []string{poolDir()}
	for _, name := range corpusNames() {
		dirs = append(dirs, filepath.Join(corpusRoot(), name))
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			t.Parallel()
			for _, elide := range []bool{true, false} {
				want := t.TempDir()
				wantStats := instrumentFromSource(t, dir, Options{Elide: elide, OutDir: want})
				got := t.TempDir()
				inst, err := Instrument(dir, Options{Elide: elide, OutDir: got})
				if err != nil {
					t.Fatal(err)
				}
				if inst.Stats != wantStats {
					t.Errorf("elide=%v: Stats = %+v, the source importer gives %+v", elide, inst.Stats, wantStats)
				}
				g, w := readTree(t, got), readTree(t, want)
				if len(g) != len(w) {
					t.Errorf("elide=%v: %d files, the source importer writes %d", elide, len(g), len(w))
				}
				for name, src := range w {
					if have, ok := g[name]; !ok || have != src {
						t.Errorf("elide=%v: %s differs from the source importer's\n--- export data\n%s\n--- source\n%s", elide, name, have, src)
					}
				}
			}
		})
	}
}

// TestLoadImportShapes covers the import lists that need care: none (an
// empty `go list` would list the working directory), only "unsafe" (no
// export data exists for it), and "testing" through a _test.go file.
func TestLoadImportShapes(t *testing.T) {
	mod := t.TempDir()
	t.Run("none", func(t *testing.T) {
		dir := writePkg(t, map[string]string{"main.go": "package main\n\nfunc main() {}\n"})
		pkg, err := Load(dir, false, mod)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.goList != 0 {
			t.Errorf("go list ran for %v on a package without imports", pkg.goList)
		}
	})
	t.Run("unsafe", func(t *testing.T) {
		src := "package main\n\nimport \"unsafe\"\n\nvar n = unsafe.Sizeof(0)\n\nfunc main() {}\n"
		pkg, err := Load(writePkg(t, map[string]string{"main.go": src}), false, mod)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.goList != 0 {
			t.Errorf("go list ran for %v on a package importing only unsafe", pkg.goList)
		}
	})
	t.Run("testing", func(t *testing.T) {
		dir := writePkg(t, map[string]string{
			"p.go":      "package p\n\nimport \"unsafe\"\n\nvar N = unsafe.Sizeof(0)\n",
			"p_test.go": "package p\n\nimport \"testing\"\n\nfunc TestN(t *testing.T) { t.Log(N) }\n",
		})
		pkg, err := Load(dir, true, mod)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.Files) != 2 || pkg.goList == 0 {
			t.Errorf("Load with tests: %d files, go list %v; want 2 files and a go list call", len(pkg.Files), pkg.goList)
		}
	})
}

// TestInstrumentLeavesParentGoModAlone: the go tool runs with -mod=mod,
// which may rewrite the go.mod it finds; it must only ever find the
// shadow module's.
func TestInstrumentLeavesParentGoModAlone(t *testing.T) {
	root := t.TempDir()
	gomod := "module example.com/user\n\ngo 1.21\n\nrequire example.com/missing v1.0.0 // untidy on purpose\n"
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "cmd", "app")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(1) }\n"
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Instrument(dir, Options{OutDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != gomod {
		t.Errorf("Instrument rewrote the user's go.mod:\n%s", after)
	}
	if _, err := os.Stat(filepath.Join(root, "go.sum")); err == nil {
		t.Error("Instrument left a go.sum beside the user's go.mod")
	}
}

// TestImportFailureNamesBothToolchains: export data is tied to the
// release that wrote it, so when an import fails the error must say which
// import and which two releases met, not a bare "could not import".
func TestImportFailureNamesBothToolchains(t *testing.T) {
	src := "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(1) }\n"
	for _, tc := range []struct {
		name    string
		exports map[string]string
		want    string
	}{
		{"lookup miss", map[string]string{}, "named no export data"},
		{"unreadable file", map[string]string{"fmt": filepath.Join(t.TempDir(), "gone.a")}, "gone.a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := parse(writePkg(t, map[string]string{"main.go": src}), false)
			if err != nil {
				t.Fatal(err)
			}
			err = pkg.typeCheck(exportImporter(pkg.Fset, tc.exports))
			if err == nil {
				t.Fatal("type check succeeded without export data for fmt")
			}
			for _, want := range []string{"goinstr: type checking:", `"fmt"`, tc.want, runtime.Version(), toolVersion()} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}

	t.Run("go list fails", func(t *testing.T) {
		mod := t.TempDir()
		if err := emitModule(mod); err != nil {
			t.Fatal(err)
		}
		_, err := listExports(mod, []string{"no/such/stdlib/package"})
		if err == nil || !strings.Contains(err.Error(), "go list -export") ||
			!strings.Contains(err.Error(), "no/such/stdlib/package") {
			t.Fatalf("listExports = %v, want go list's own stderr naming the package", err)
		}
	})
}
