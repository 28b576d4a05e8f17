package goinstr

import (
	"debug/buildinfo"
	"encoding/json"
	"go/importer"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
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
// Each is instrumented twice into one kept module: the first run lists the
// export data and records it, the second trusts the record (no go list)
// and must write the same files. The record is the one file the source
// importer's module lacks.
func TestExportDataMatchesSourceImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference importer type-checks the standard library from source")
	}
	recorded := releaseToolchain(testGoEnv(t))
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
				w := readTree(t, want)
				got := t.TempDir()
				for _, run := range []string{"first", "rerun"} {
					inst, err := Instrument(dir, Options{Elide: elide, OutDir: got})
					if err != nil {
						t.Fatal(err)
					}
					if run == "rerun" && recorded && inst.GoList != 0 {
						t.Errorf("elide=%v: the rerun into a kept shadow module ran go list for %v", elide, inst.GoList)
					}
					if inst.Stats != wantStats {
						t.Errorf("elide=%v, %s run: Stats = %+v, the source importer gives %+v", elide, run, inst.Stats, wantStats)
					}
					g := readTree(t, got)
					if _, ok := g[recordName]; ok != recorded {
						t.Errorf("elide=%v, %s run: %s present = %v, want %v", elide, run, recordName, ok, recorded)
					}
					delete(g, recordName)
					if len(g) != len(w) {
						t.Errorf("elide=%v, %s run: %d files, the source importer writes %d", elide, run, len(g), len(w))
					}
					for name, src := range w {
						if have, ok := g[name]; !ok || have != src {
							t.Errorf("elide=%v, %s run: %s differs from the source importer's\n--- export data\n%s\n--- source\n%s", elide, run, name, have, src)
						}
					}
				}
			}
		})
	}
}

// testGoEnv is goEnv in a fresh shadow module.
func testGoEnv(t *testing.T) map[string]string {
	t.Helper()
	mod := t.TempDir()
	if err := emitModule(mod); err != nil {
		t.Fatal(err)
	}
	env, err := goEnv(mod)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// readRecordFile returns the record in mod, failing the test if there is
// none or it does not parse.
func readRecordFile(t *testing.T, mod string) exportRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(mod, recordName))
	if err != nil {
		t.Fatal(err)
	}
	var rec exportRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("%s: %v", recordName, err)
	}
	return rec
}

func writeRecordFile(t *testing.T, mod string, rec exportRecord) {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, recordName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExportRecordMisses: every reason not to trust a kept module's record
// runs go list, which is no error, and leaves a record that holds for the
// package just loaded, so the next load trusts it.
func TestExportRecordMisses(t *testing.T) {
	if !releaseToolchain(testGoEnv(t)) {
		t.Skip("a devel toolchain's export data is never recorded")
	}
	fmtPkg := writePkg(t, map[string]string{"main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(1) }\n"})
	listPkg := writePkg(t, map[string]string{"main.go": "package main\n\nimport (\n\t\"container/list\"\n\t\"fmt\"\n)\n\nfunc main() { fmt.Println(list.New().Len()) }\n"})
	load := func(t *testing.T, dir, mod string) time.Duration {
		t.Helper()
		pkg, err := Load(dir, false, mod)
		if err != nil {
			t.Fatal(err)
		}
		return pkg.goList
	}
	for _, tc := range []struct {
		name  string
		dir   string                         // loaded after spoil
		spoil func(t *testing.T, mod string) // runs after a recorded load of fmtPkg
	}{
		{"unrecorded import", listPkg, func(*testing.T, string) {}},
		{"deleted recorded file", fmtPkg, func(t *testing.T, mod string) {
			// Point the record at a copy of fmt's export data, show that the
			// copy is what a hit reads, then delete it.
			rec := readRecordFile(t, mod)
			data, err := os.ReadFile(rec.Exports["fmt"])
			if err != nil {
				t.Fatal(err)
			}
			cp := filepath.Join(t.TempDir(), "fmt.a")
			if err := os.WriteFile(cp, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rec.Exports["fmt"] = cp
			writeRecordFile(t, mod, rec)
			if d := load(t, fmtPkg, mod); d != 0 {
				t.Fatalf("go list ran for %v though the record's files all exist", d)
			}
			if err := os.Remove(cp); err != nil {
				t.Fatal(err)
			}
		}},
		{"another fingerprint", fmtPkg, func(t *testing.T, _ string) {
			t.Setenv("CGO_CFLAGS", "-O1 -g -DVFT_RECORD_TEST")
		}},
		{"corrupt record", fmtPkg, func(t *testing.T, mod string) {
			if err := os.WriteFile(filepath.Join(mod, recordName), []byte(`{"env":`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := t.TempDir()
			if d := load(t, fmtPkg, mod); d == 0 {
				t.Fatal("the first load into a fresh shadow module ran no go list")
			}
			tc.spoil(t, mod)
			if d := load(t, tc.dir, mod); d == 0 {
				t.Fatal("go list did not run")
			}
			rec := readRecordFile(t, mod)
			env, err := goEnv(mod)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(rec.Env, env) {
				t.Errorf("the rewritten record's fingerprint is not the go tool's")
			}
			for _, path := range []string{"fmt", "container/list"} {
				if tc.dir == fmtPkg && path != "fmt" {
					continue
				}
				if _, err := os.Stat(rec.Exports[path]); err != nil {
					t.Errorf("the rewritten record's export file for %s: %v", path, err)
				}
			}
			if d := load(t, tc.dir, mod); d != 0 {
				t.Errorf("go list ran for %v after the record was rewritten", d)
			}
		})
	}
}

// TestDevelToolchainIsNeverRecorded: a go tool whose GOVERSION is not a
// release (here the real one behind a wrapper that says "devel") gets no
// record, and a record made under it is not trusted.
func TestDevelToolchainIsNeverRecorded(t *testing.T) {
	goOnPath(t, true)

	dir := writePkg(t, map[string]string{"main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(1) }\n"})
	mod := t.TempDir()
	for i := 0; i < 2; i++ {
		pkg, err := Load(dir, false, mod)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.goList == 0 {
			t.Fatalf("load %d ran no go list under a devel toolchain", i+1)
		}
		if _, err := os.Stat(filepath.Join(mod, recordName)); !os.IsNotExist(err) {
			t.Fatalf("load %d: %s under a devel toolchain: %v", i+1, recordName, err)
		}
	}

	env, err := goEnv(mod)
	if err != nil {
		t.Fatal(err)
	}
	if env["GOVERSION"] != "devel go1.99-0123abc" {
		t.Fatalf("the wrapper's GOVERSION is %q", env["GOVERSION"])
	}
	exports, err := listExports(mod, []string{"fmt"})
	if err != nil {
		t.Fatal(err)
	}
	writeRecordFile(t, mod, exportRecord{Env: env, Exports: exports})
	if pkg, err := Load(dir, false, mod); err != nil {
		t.Fatal(err)
	} else if pkg.goList == 0 {
		t.Error("a record made under a devel toolchain was trusted")
	}
}

// TestLoadFollowsBuildConstraints: Load takes the files `go build` would
// compile — not "_" files, not another platform's, not ones a //go:build
// line excludes — and the shadow module holds exactly those.
func TestLoadFollowsBuildConstraints(t *testing.T) {
	mine := "greet_" + runtime.GOOS + ".go"
	dir := writePkg(t, map[string]string{
		"main.go":        "package main\n\nfunc main() { println(greeting) }\n",
		mine:             "package main\n\nconst greeting = \"here\"\n",
		"greet_other.go": "//go:build !" + runtime.GOOS + "\n\npackage main\n\nconst greeting = \"elsewhere\"\n",
		"_notes.go":      "package main\n\nconst greeting = \"notes\"\n",
	})
	out := t.TempDir()
	if _, err := Instrument(dir, Options{OutDir: out}); err != nil {
		t.Fatal(err)
	}
	gofiles, err := filepath.Glob(filepath.Join(out, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range gofiles {
		gofiles[i] = filepath.Base(f)
	}
	if want := []string{mine, "main.go"}; !slices.Equal(gofiles, want) {
		t.Errorf("shadow module holds %v, want %v", gofiles, want)
	}
}

// TestShadowBuildHasNoVCSStamp: a shadow module inside a git checkout
// builds a binary that carries no version-control settings — they would
// describe the enclosing repository, not the shadow module.
func TestShadowBuildHasNoVCSStamp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("no git on PATH")
	}
	root := t.TempDir()
	for _, args := range [][]string{
		{"init", "-q"},
		{"-c", "user.name=vft", "-c", "user.email=vft@example.com", "commit", "-q", "--allow-empty", "-m", "init"},
	} {
		cmd := exec.Command(git, args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %s: %v\n%s", args[0], err, out)
		}
	}
	dir := writePkg(t, map[string]string{"main.go": "package main\n\nfunc main() {}\n"})
	inst, err := Instrument(dir, Options{OutDir: filepath.Join(root, "shadow")})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Build(inst.Dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range info.Settings {
		if strings.HasPrefix(s.Key, "vcs") {
			t.Errorf("the shadow binary carries %s=%s", s.Key, s.Value)
		}
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
	goVersion := testGoEnv(t)["GOVERSION"]
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
			err = pkg.typeCheck(exportImporter(pkg.Fset, tc.exports, goVersion))
			if err == nil {
				t.Fatal("type check succeeded without export data for fmt")
			}
			for _, want := range []string{"goinstr: type checking:", `"fmt"`, tc.want, runtime.Version(), goVersion} {
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
