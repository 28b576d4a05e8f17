package goinstr

import (
	"debug/buildinfo"
	"encoding/json"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// sourceImporter is the stdlib "source" importer, shared by every
// instrumentFromSource call so the standard library is type-checked from
// source once per test process rather than once per program and elision
// mode. The importer is not safe for concurrent use: Import holds mu.
var sourceImporter = &lockedImporter{imp: importer.ForCompiler(token.NewFileSet(), "source", nil)}

type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
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
	if err := pkg.typeCheck(sourceImporter); err != nil {
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
	recorded := toolchainKey() != ""
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

// readRecordFile returns the record in mod, failing the test if there is
// none or it does not parse.
func readRecordFile(t *testing.T, mod string) keptRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(mod, recordName))
	if err != nil {
		t.Fatal(err)
	}
	var rec keptRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("%s: %v", recordName, err)
	}
	return rec
}

// writeRecordFile writes rec as mod's record, whatever it holds.
func writeRecordFile(t *testing.T, mod string, rec keptRecord) {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, recordName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExportRecordMisses: every source input the record covers, changed,
// and every reason not to trust its export files makes the next
// Instrument miss — listing the export data again only in the latter case
// — and leaves what a cold run leaves.
func TestExportRecordMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fg := goOnPath(t, "")
	if toolchainKey() == "" {
		t.Skip("the toolchain is not one a record may be trusted under")
	}
	base := map[string]string{
		"main.go":    "package main\n\nimport \"fmt\"\n\nfunc main() {\n\tn := 1\n\tn++\n\tfmt.Println(greet(), n)\n}\n",
		"greet.go":   "package main\n\nfunc greet() string { return \"v1\" }\n",
		"extra.go":   "package main\n\nvar extra = 1\n",
		"ignored.go": "//go:build ignore\n\npackage main\n\nconst ignored = 1\n",
	}
	dir := t.TempDir()
	write := func(t *testing.T, name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reset := func(t *testing.T) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		for name, src := range base {
			write(t, name, src)
		}
	}
	link, list := []string{"build"}, []string{"list", "build"}
	checkMisses(t, fg, dir, reset, []missRow{
		// The export files.
		{name: "unrecorded import", emits: true, runs: list, spoil: func(t *testing.T, _ string) {
			write(t, "greet.go", "package main\n\nimport \"container/list\"\n\nfunc greet() string { return \"v1\" + string(rune('0'+list.New().Len())) }\n")
		}},
		{name: "deleted recorded file", emits: true, runs: []string{"list"}, spoil: func(t *testing.T, mod string) {
			// Point the record at a copy of fmt's export data, show that a
			// load reads the copy, then delete it and change the source so
			// that Instrument must load.
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
			if pkg, err := Load(dir, false, mod); err != nil {
				t.Fatal(err)
			} else if pkg.goList != 0 {
				t.Fatalf("go list ran for %v though the record's files all exist", pkg.goList)
			}
			if err := os.Remove(cp); err != nil {
				t.Fatal(err)
			}
			appendByte(t, filepath.Join(dir, "main.go"))
		}},
		{name: "another fingerprint", emits: true, runs: list, spoil: func(t *testing.T, _ string) {
			t.Setenv("CGO_CFLAGS", "-O1 -g -DVFT_RECORD_TEST")
		}},
		{name: "corrupt record", emits: true, runs: list, spoil: func(t *testing.T, mod string) {
			if err := os.WriteFile(filepath.Join(mod, recordName), []byte(`{"toolchain":`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// The source: every .go file in the package directory, whether the
		// build takes it or not; the options; the instrumenter.
		{name: "edited file", emits: true, runs: link, spoil: func(t *testing.T, _ string) {
			write(t, "greet.go", strings.Replace(base["greet.go"], "v1", "v2", 1))
		}},
		{name: "added file", emits: true, runs: link, spoil: func(t *testing.T, _ string) {
			write(t, "more.go", "package main\n\nvar more = 2\n")
		}},
		{name: "removed file", emits: true, runs: link, spoil: func(t *testing.T, _ string) {
			if err := os.Remove(filepath.Join(dir, "extra.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "edited excluded file", emits: true, spoil: func(t *testing.T, _ string) {
			appendByte(t, filepath.Join(dir, "ignored.go"))
		}},
		{name: "elision off", emits: true, runs: link, spoil: func(*testing.T, string) {}, setOpts: func(o *Options) { o.Elide = false }},
		{name: "tests included", emits: true, runs: link, spoil: func(*testing.T, string) {}, setOpts: func(o *Options) { o.IncludeTests = true }},
		{name: "another instrumenter", emits: true, spoil: func(t *testing.T, _ string) {
			id := selfBuildID
			selfBuildID = func() string { return "another/instrumenter" }
			t.Cleanup(func() { selfBuildID = id })
		}},
	})
}

// TestDevelToolchainIsNeverRecorded: under a go tool whose GOROOT's
// VERSION is not a release, every Instrument lists the export data and
// writes no record, and a record made under it is not trusted.
func TestDevelToolchainIsNeverRecorded(t *testing.T) {
	goOnPath(t, "devel go1.99-0123abc\n")
	dir := writePkg(t, map[string]string{"main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(1) }\n"})
	mod := t.TempDir()
	opts := Options{OutDir: mod}
	for i := 0; i < 2; i++ {
		inst, err := Instrument(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if inst.GoList == 0 {
			t.Fatalf("instrument %d ran no go list under a devel toolchain", i+1)
		}
		if _, err := os.Stat(filepath.Join(mod, recordName)); !os.IsNotExist(err) {
			t.Fatalf("instrument %d: %s under a devel toolchain: %v", i+1, recordName, err)
		}
	}

	exports, err := listExports(mod, []string{"fmt"})
	if err != nil {
		t.Fatal(err)
	}
	writeRecordFile(t, mod, keptRecord{Toolchain: toolchainKey(), Source: sourceKey(dir, opts), Module: moduleKey(mod), Exports: exports})
	if inst, err := Instrument(dir, opts); err != nil {
		t.Fatal(err)
	} else if inst.GoList == 0 {
		t.Error("a record made under a devel toolchain was trusted")
	}
}

// TestToolchainKeyReadsWhatGoReports: what the key reads without a go
// command is what the go command reports: the GOROOT found beside the go
// binary is `go env GOROOT`, the release in its VERSION file is `go env
// GOVERSION`, and the build ID read from the running executable is the
// one `go tool buildid` reads.
func TestToolchainKeyReadsWhatGoReports(t *testing.T) {
	out, err := exec.Command("go", "env", "GOROOT", "GOVERSION").Output()
	if err != nil {
		t.Fatal(err)
	}
	root, version, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	t.Setenv("GOROOT", "")
	_, resolved, err := lookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	if got := goroot(resolved, userEnvFile()); got != root {
		t.Errorf("goroot = %q, go env GOROOT = %q", got, root)
	}
	if got := goVersion(); got != version {
		t.Errorf("goVersion = %q, go env GOVERSION = %q", got, version)
	}
	if releaseVersion(version) && toolchainKey() == "" {
		t.Errorf("no toolchain key under the release %s", version)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command("go", "tool", "buildid", exe).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := selfBuildID(), strings.TrimSpace(string(out)); got != want {
		t.Errorf("selfBuildID = %q, go tool buildid = %q", got, want)
	}
	if got := elfBuildID([]byte("#!/bin/sh\n")); got != "" {
		t.Errorf("elfBuildID of a script = %q", got)
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
// describe the enclosing repository, not the shadow module — and was built
// with trimmed paths, so the shim and the packages it carries compile
// once per build cache rather than once per shadow directory.
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
	trimmed := false
	for _, s := range info.Settings {
		if strings.HasPrefix(s.Key, "vcs") {
			t.Errorf("the shadow binary carries %s=%s", s.Key, s.Value)
		}
		trimmed = trimmed || s.Key == "-trimpath" && s.Value == "true"
	}
	if !trimmed {
		t.Errorf("the shadow binary was built without -trimpath: %v", info.Settings)
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
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		t.Fatal(err)
	}
	goVersion := strings.TrimSpace(string(out))
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
