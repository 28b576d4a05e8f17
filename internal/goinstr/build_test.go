package goinstr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// fakeGo is a shell script named go, first on PATH for the rest of a test.
// It appends each call's arguments, one line per call, to log, and runs
// the real go tool in the real GOROOT. $GOROOT, where toolchainKey reads
// VERSION and go.env, names goroot instead: copies of those two files,
// VERSION as the test asked. $GOENV names envFile, a copy of the user's go
// env file.
type fakeGo struct {
	log, dir, goroot, envFile string
}

// goOnPath puts a fakeGo on PATH whose VERSION file holds version, or the
// real one's if version is "".
func goOnPath(t *testing.T, version string) fakeGo {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("the wrapper is a shell script")
	}
	realGo, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	if realGo, err = filepath.Abs(realGo); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(realGo, "env", "GOROOT", "GOENV").Output()
	if err != nil {
		t.Fatal(err)
	}
	realRoot, realEnv, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	dir := t.TempDir()
	fg := fakeGo{
		log:     filepath.Join(dir, "calls.log"),
		dir:     dir,
		goroot:  filepath.Join(dir, "goroot"),
		envFile: filepath.Join(dir, "goenv"),
	}
	if err := os.Mkdir(fg.goroot, 0o755); err != nil {
		t.Fatal(err)
	}
	if version == "" {
		raw, err := os.ReadFile(filepath.Join(realRoot, "VERSION"))
		if err != nil {
			t.Fatal(err)
		}
		version = string(raw)
	}
	rootEnv, _ := os.ReadFile(filepath.Join(realRoot, "go.env"))
	userEnv, _ := os.ReadFile(realEnv)
	for path, content := range map[string]string{
		filepath.Join(fg.goroot, "VERSION"): version,
		filepath.Join(fg.goroot, "go.env"):  string(rootEnv),
		fg.envFile:                          string(userEnv),
		filepath.Join(dir, "go"):            fmt.Sprintf("#!/bin/sh\necho \"$*\" >> %q\nGOROOT=%q exec %q \"$@\"\n", fg.log, realRoot, realGo),
	} {
		if err := os.WriteFile(path, []byte(content), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
	t.Setenv("GOROOT", fg.goroot)
	t.Setenv("GOENV", fg.envFile)
	return fg
}

// calls returns the go subcommands run since the last calls, in order, and
// empties the log.
func (fg fakeGo) calls(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(fg.log)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(fg.log, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var subs []string
	for _, line := range strings.FieldsFunc(string(raw), func(r rune) bool { return r == '\n' }) {
		subs = append(subs, strings.Fields(line)[0])
	}
	return subs
}

// pair instruments dir into mod with opts and builds it, as a vft-go run
// does, and returns the go subcommands the two ran and whether Instrument
// emitted the module. It rewrites the record whenever it does, through a
// rename that leaves a new file in its place; an emit may write no other
// file.
func (fg fakeGo) pair(t *testing.T, dir, mod string, opts Options) (calls []string, emitted bool) {
	t.Helper()
	record := filepath.Join(mod, recordName)
	before, errBefore := os.Stat(record)
	fg.calls(t)
	opts.OutDir = mod
	if _, err := Instrument(dir, opts); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(record)
	emitted = err == nil && (errBefore != nil || !os.SameFile(before, after))
	if _, err := Build(mod); err != nil {
		t.Fatal(err)
	}
	return fg.calls(t), emitted
}

// missRow is one way to make a kept module's record not hold: spoil runs
// after a pair into the module that hit, and the next pair, with opts
// changed by setOpts if set, must emit the module or not as emits says,
// and run exactly the go subcommands in runs.
type missRow struct {
	name    string
	spoil   func(t *testing.T, mod string)
	setOpts func(*Options)
	emits   bool
	runs    []string
}

// checkMisses runs each row on a kept module of the package in dir, which
// reset writes afresh before each row. It requires the pair after each
// spoil to leave the very module, record and binary a cold pair into the
// same directory leaves, and the pair after that to be a hit: no go
// command, nothing emitted. The record's module and binary keys name
// files by their stamps, which differ from a cold run's files' however
// equal the bytes: of those two keys, only that they are set is required.
func checkMisses(t *testing.T, fg fakeGo, dir string, reset func(t *testing.T), rows []missRow) {
	t.Helper()
	mod := filepath.Join(t.TempDir(), "mod")
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reset(t)
			opts := Options{Elide: true}
			fg.pair(t, dir, mod, opts)
			if calls, emitted := fg.pair(t, dir, mod, opts); len(calls) != 0 || emitted {
				t.Fatalf("before the spoil: go %q, emitted %v; want a hit", calls, emitted)
			}
			row.spoil(t, mod)
			if row.setOpts != nil {
				row.setOpts(&opts)
			}
			calls, emitted := fg.pair(t, dir, mod, opts)
			if emitted != row.emits || !slices.Equal(calls, row.runs) {
				t.Errorf("after the spoil: go %q, emitted %v; want go %q, emitted %v", calls, emitted, row.runs, row.emits)
			}
			got := readTree(t, mod)
			if err := os.RemoveAll(mod); err != nil {
				t.Fatal(err)
			}
			fg.pair(t, dir, mod, opts)
			want := readTree(t, mod)
			if g, w := unstamped(t, got[recordName]), unstamped(t, want[recordName]); !reflect.DeepEqual(g, w) {
				t.Errorf("the record differs from a cold run's beyond its stamp keys:\n%+v\n%+v", g, w)
			}
			delete(got, recordName)
			delete(want, recordName)
			for name, content := range want {
				if got[name] != content {
					t.Errorf("%s differs from a cold run's", name)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s is not in a cold run's module", name)
				}
			}
			if calls, emitted := fg.pair(t, dir, mod, opts); len(calls) != 0 || emitted {
				t.Errorf("after the miss: go %q, emitted %v; want a hit", calls, emitted)
			}
		})
	}
}

// unstamped parses a record's bytes and clears its module and binary
// keys, which it requires to be set.
func unstamped(t *testing.T, raw string) keptRecord {
	t.Helper()
	var rec keptRecord
	if err := json.Unmarshal([]byte(raw), &rec); err != nil {
		t.Fatalf("%s: %v", recordName, err)
	}
	if rec.Module == "" || rec.Bin == "" {
		t.Errorf("%s without a module or binary key: %+v", recordName, rec)
	}
	rec.Module, rec.Bin = "", ""
	return rec
}

// contentHash is the SHA-256, in hex, of the file at path.
func contentHash(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// rewriteInPlace changes one byte of the file at path, at offset, in
// place: the same inode, the same size, and its old modification time
// restored. Only its change time tells.
func rewriteInPlace(t *testing.T, path string, offset int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, offset); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b, offset); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
}

// runBin runs a shadow binary with capture off and returns its stdout.
func runBin(t *testing.T, bin string) string {
	t.Helper()
	out, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("running %s: %v", bin, err)
	}
	return string(out)
}

// instrumentAndBuild instruments dir into mod and builds it.
func instrumentAndBuild(t *testing.T, dir, mod string) string {
	t.Helper()
	if _, err := Instrument(dir, Options{Elide: true, OutDir: mod}); err != nil {
		t.Fatal(err)
	}
	bin, err := Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestKeptModuleDropsStaleFiles: instrumenting into a kept module leaves
// no source of an earlier package behind, so go build compiles exactly
// the package instrumented last.
func TestKeptModuleDropsStaleFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	t.Parallel()
	mod := t.TempDir()
	prog := func(word string) string {
		return "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(\"" + word + "\") }\n"
	}
	a := writePkg(t, map[string]string{"a.go": prog("a")})
	b := writePkg(t, map[string]string{"b.go": prog("b")})
	if out := runBin(t, instrumentAndBuild(t, a, mod)); out != "a\n" {
		t.Fatalf("a printed %q", out)
	}
	if out := runBin(t, instrumentAndBuild(t, b, mod)); out != "b\n" {
		t.Fatalf("b, instrumented after a into one module, printed %q", out)
	}

	c := writePkg(t, map[string]string{
		"main.go":  prog("main"),
		"extra.go": "package main\n\nimport \"fmt\"\n\nfunc init() { fmt.Println(\"extra init\") }\n",
	})
	if out := runBin(t, instrumentAndBuild(t, c, mod)); out != "extra init\nmain\n" {
		t.Fatalf("with extra.go: printed %q", out)
	}
	if err := os.Remove(filepath.Join(c, "extra.go")); err != nil {
		t.Fatal(err)
	}
	if out := runBin(t, instrumentAndBuild(t, c, mod)); out != "main\n" {
		t.Errorf("extra.go deleted: printed %q, want only main's line", out)
	}
}

// appendByte appends one byte to the file at path.
func appendByte(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRecordMisses: every module input and every toolchain input the
// record covers, changed, makes the next Instrument and Build miss where
// they must, and leaves what a cold run leaves.
func TestBuildRecordMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fg := goOnPath(t, "")
	if toolchainKey() == "" {
		t.Skip("the toolchain is not one a record may be trusted under")
	}
	dir := writePkg(t, map[string]string{"main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(\"v1\") }\n"})
	link, list := []string{"build"}, []string{"list", "build"}
	checkMisses(t, fg, dir, func(*testing.T) {}, []missRow{
		// The module's own files. Instrument writes each spoiled source
		// back, as a new file whose stamp no binary was linked from.
		{name: "edited main.go", emits: true, runs: link, spoil: func(t *testing.T, mod string) {
			path := filepath.Join(mod, "main.go")
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := strings.Index(string(src), `"v1"`)
			if i < 0 {
				t.Fatalf("no \"v1\" in the rewritten main.go:\n%s", src)
			}
			src[i+2] = '2'
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "edited rt/rt.go", emits: true, runs: link, spoil: func(t *testing.T, mod string) { appendByte(t, filepath.Join(mod, "rt", "rt.go")) }},
		{name: "edited go.mod", emits: true, runs: link, spoil: func(t *testing.T, mod string) { appendByte(t, filepath.Join(mod, "go.mod")) }},
		// What a stamp sees that size and modification time do not.
		{name: "rt/rt.go rewritten in place", emits: true, runs: link, spoil: func(t *testing.T, mod string) {
			rewriteInPlace(t, filepath.Join(mod, "rt", "rt.go"), 3)
		}},
		{name: "main.go renamed over", emits: true, runs: link, spoil: func(t *testing.T, mod string) {
			// The same bytes and modification time, in a new file.
			path := filepath.Join(mod, "main.go")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+".new", src, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path+".new", fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(path+".new", path); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "binary rewritten in place", runs: link, spoil: func(t *testing.T, mod string) {
			rewriteInPlace(t, filepath.Join(mod, "vftbin"), 4096)
		}},
		// An emit that writes the bytes the module holds leaves every
		// stamp, and the binary linked from them, as it was.
		{name: "identical re-emit", emits: true, runs: []string{"list"}, spoil: func(t *testing.T, mod string) {
			rec := readRecordFile(t, mod)
			rec.Source, rec.Exports = "another source", nil
			writeRecordFile(t, mod, rec)
		}},
		{name: "truncated binary", runs: link, spoil: func(t *testing.T, mod string) {
			if err := os.Truncate(filepath.Join(mod, "vftbin"), 4096); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "deleted binary", runs: link, spoil: func(t *testing.T, mod string) {
			if err := os.Remove(filepath.Join(mod, "vftbin")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "moved module", emits: true, runs: link, spoil: func(t *testing.T, mod string) {
			// The module, record and binary as a cold run into another
			// directory leaves them, copied here.
			other := t.TempDir()
			fg.pair(t, dir, other, Options{Elide: true})
			if err := os.RemoveAll(mod); err != nil {
				t.Fatal(err)
			}
			for name, content := range readTree(t, other) {
				path := filepath.Join(mod, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(content), 0o755); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "corrupt record", emits: true, runs: list, spoil: func(t *testing.T, mod string) {
			if err := os.WriteFile(filepath.Join(mod, recordName), []byte(`{"toolchain":`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "missing record", emits: true, runs: list, spoil: func(t *testing.T, mod string) {
			if err := os.Remove(filepath.Join(mod, recordName)); err != nil {
				t.Fatal(err)
			}
		}},
		// The toolchain's inputs.
		{name: "go binary touched", emits: true, runs: list, spoil: func(t *testing.T, _ string) {
			now := time.Now().Add(time.Minute)
			if err := os.Chtimes(filepath.Join(fg.dir, "go"), now, now); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "edited VERSION", emits: true, runs: list, spoil: func(t *testing.T, _ string) { appendByte(t, filepath.Join(fg.goroot, "VERSION")) }},
		{name: "edited go.env", emits: true, runs: list, spoil: func(t *testing.T, _ string) { appendByte(t, filepath.Join(fg.goroot, "go.env")) }},
		{name: "edited GOENV file", emits: true, runs: list, spoil: func(t *testing.T, _ string) { appendByte(t, fg.envFile) }},
		{name: "C compiler added on PATH", emits: true, runs: list, spoil: func(t *testing.T, _ string) {
			name := cCompiler("", "")
			if filepath.IsAbs(name) {
				t.Skip("$CC names a path, not a command on PATH")
			}
			cc := filepath.Join(fg.dir, name)
			script := "#!/bin/sh\nexit 1\n"
			if real, err := exec.LookPath(name); err == nil {
				script = fmt.Sprintf("#!/bin/sh\nexec %q \"$@\"\n", real)
			}
			if err := os.WriteFile(cc, []byte(script), 0o755); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Remove(cc) })
		}},
		// The changed environment lasts only for its own row.
		{name: "another fingerprint", emits: true, runs: list, spoil: func(t *testing.T, _ string) {
			t.Setenv("CGO_CFLAGS", "-O1 -g -DVFT_BUILD_TEST")
		}},
		{name: "unrelated variable", emits: true, runs: list, spoil: func(t *testing.T, _ string) {
			t.Setenv("VFT_BUILD_TEST", "1")
		}},
	})
}

// TestDevelToolchainIsNeverTrustedToLink: under a devel toolchain every
// Build links, writes no record, and trusts none it finds.
func TestDevelToolchainIsNeverTrustedToLink(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fg := goOnPath(t, "devel go1.99-0123abc\n")
	if key := toolchainKey(); key != "" {
		t.Fatalf("toolchainKey = %q under a devel VERSION", key)
	}
	mod := t.TempDir()
	dir := writePkg(t, map[string]string{"main.go": "package main\n\nfunc main() {}\n"})
	if _, err := Instrument(dir, Options{OutDir: mod}); err != nil {
		t.Fatal(err)
	}
	var bin string
	var err error
	for i := 0; i < 2; i++ {
		fg.calls(t)
		if bin, err = Build(mod); err != nil {
			t.Fatal(err)
		}
		if calls := fg.calls(t); !slices.Equal(calls, []string{"build"}) {
			t.Fatalf("build %d under a devel toolchain ran go %q, want one go build", i+1, calls)
		}
		if _, err := os.Stat(filepath.Join(mod, recordName)); !os.IsNotExist(err) {
			t.Fatalf("build %d: %s under a devel toolchain: %v", i+1, recordName, err)
		}
	}
	writeRecordFile(t, mod, keptRecord{Module: moduleKey(mod), Bin: stampKey(bin)})
	if _, err := Build(mod); err != nil {
		t.Fatal(err)
	}
	if calls := fg.calls(t); !slices.Equal(calls, []string{"build"}) {
		t.Errorf("a record was trusted under a devel toolchain: go %q", calls)
	}
}

// modTimes returns the modification time of every file under root, keyed
// by relative path.
func modTimes(t *testing.T, root string) map[string]time.Time {
	t.Helper()
	times := map[string]time.Time{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		times[path] = fi.ModTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return times
}

// TestWarmVerdictIgnoresTheShell: a rerun that differs from the cold run
// only in the shell's PWD, OLDPWD and _ (run from another directory,
// through another path to the binary) is still warm: the go command reads
// none of the three, so the toolchain key does not hash them.
func TestWarmVerdictIgnoresTheShell(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	fg := goOnPath(t, "")
	if toolchainKey() == "" {
		t.Skip("the toolchain is not one a record may be trusted under")
	}
	mod := t.TempDir()
	opts := Options{Elide: true, OutDir: mod}
	fg.pair(t, poolDir(), mod, opts)
	elsewhere := t.TempDir()
	t.Setenv("PWD", elsewhere)
	t.Setenv("OLDPWD", mod)
	t.Setenv("_", filepath.Join(elsewhere, "vft-go"))
	if calls, _ := fg.pair(t, poolDir(), mod, opts); len(calls) != 0 {
		t.Errorf("a rerun from another shell ran go %q, want no go command", calls)
	}
}

// TestWarmVerdictRunsNoGoCommand: instrumenting and building the pool
// program again into a kept module runs no go command and writes no file;
// and the binary such a hit reuses is the one go build links from that
// module.
func TestWarmVerdictRunsNoGoCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	fg := goOnPath(t, "")
	if toolchainKey() == "" {
		t.Skip("the toolchain is not one a record may be trusted under")
	}
	mod := t.TempDir()
	opts := Options{Elide: true, OutDir: mod}
	fg.pair(t, poolDir(), mod, opts)
	before := modTimes(t, mod)
	if calls, _ := fg.pair(t, poolDir(), mod, opts); len(calls) != 0 {
		t.Errorf("the warm verdict ran go %q, want no go command", calls)
	}
	if after := modTimes(t, mod); !maps.Equal(before, after) {
		t.Errorf("the warm verdict wrote files: %v, then %v", before, after)
	}

	linked := contentHash(t, filepath.Join(mod, "vftbin"))
	if err := os.Remove(filepath.Join(mod, recordName)); err != nil {
		t.Fatal(err)
	}
	bin, err := Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	if calls := fg.calls(t); !slices.Equal(calls, []string{"build"}) {
		t.Fatalf("Build without a record ran go %q, want one go build", calls)
	}
	if sum := contentHash(t, bin); sum != linked {
		t.Errorf("go build linked %s, the warm verdict reused %s", sum, linked)
	}
}
