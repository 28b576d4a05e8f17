package goinstr

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// forgetGoEnvs empties goEnv's memo, as a new process starts with it empty.
func forgetGoEnvs() {
	goEnvs.Lock()
	goEnvs.m = nil
	goEnvs.Unlock()
}

// goOnPath puts a shell script named go first on PATH for the rest of t.
// The script appends each call's arguments, one line per call, to the log
// file whose path goOnPath returns, then runs the real go tool; with devel
// set, go env reports GOVERSION as the devel toolchain "devel
// go1.99-0123abc".
func goOnPath(t *testing.T, devel bool) string {
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
	bin := t.TempDir()
	log := filepath.Join(bin, "calls.log")
	wrapper := fmt.Sprintf("#!/bin/sh\necho \"$*\" >> %q\n", log)
	if devel {
		wrapper += fmt.Sprintf(`if [ "$1" = env ]; then
	%[1]q "$@" | sed 's/"GOVERSION": "[^"]*"/"GOVERSION": "devel go1.99-0123abc"/'
	exit 0
fi
`, realGo)
	}
	wrapper += fmt.Sprintf("exec %q \"$@\"\n", realGo)
	if err := os.WriteFile(filepath.Join(bin, "go"), []byte(wrapper), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", bin+string(os.PathListSeparator)+os.Getenv("PATH"))
	return log
}

// goCalls returns the calls log has recorded since the last goCalls, and
// empties it.
func goCalls(t *testing.T, log string) []string {
	t.Helper()
	raw, err := os.ReadFile(log)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return strings.FieldsFunc(string(raw), func(r rune) bool { return r == '\n' })
}

// linked reports whether calls include a go build.
func linked(calls []string) bool {
	return slices.ContainsFunc(calls, func(c string) bool { return strings.HasPrefix(c, "build ") })
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

// TestBuildRecordMisses: every reason not to trust a kept module's build
// record runs go build, which is no error and leaves a binary that runs
// and a record that holds, so the next Build links nothing.
func TestBuildRecordMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if !releaseToolchain(testGoEnv(t)) {
		t.Skip("a devel toolchain's builds are never recorded")
	}
	log := goOnPath(t, false)
	mod := t.TempDir()
	dir := writePkg(t, map[string]string{"main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println(\"v1\") }\n"})
	instrumentAndBuild(t, dir, mod)
	output := "v1\n"
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, bin string)
	}{
		{"edited main.go", func(t *testing.T, _ string) {
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
			output = "v2\n"
		}},
		{"edited rt/rt.go", func(t *testing.T, _ string) { appendByte(t, filepath.Join(mod, "rt", "rt.go")) }},
		{"edited go.mod", func(t *testing.T, _ string) { appendByte(t, filepath.Join(mod, "go.mod")) }},
		{"truncated binary", func(t *testing.T, bin string) {
			if err := os.Truncate(bin, 4096); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted binary", func(t *testing.T, bin string) {
			if err := os.Remove(bin); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt record", func(t *testing.T, _ string) {
			if err := os.WriteFile(filepath.Join(mod, buildRecordName), []byte(`{"key":`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing record", func(t *testing.T, _ string) {
			if err := os.Remove(filepath.Join(mod, buildRecordName)); err != nil {
				t.Fatal(err)
			}
		}},
		// Last: the changed environment lasts only for this case.
		{"another fingerprint", func(t *testing.T, _ string) {
			t.Setenv("CGO_CFLAGS", "-O1 -g -DVFT_BUILD_TEST")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goCalls(t, log)
			bin, err := Build(mod)
			if err != nil {
				t.Fatal(err)
			}
			if calls := goCalls(t, log); linked(calls) {
				t.Fatalf("the build before the spoil was not a hit: %q", calls)
			}
			tc.spoil(t, bin)
			for _, want := range []bool{true, false} {
				got, err := Build(mod)
				if err != nil {
					t.Fatal(err)
				}
				if calls := goCalls(t, log); linked(calls) != want {
					t.Fatalf("go build ran = %v, want %v (go calls %q)", !want, want, calls)
				}
				if out := runBin(t, got); out != output {
					t.Errorf("the binary printed %q, want %q", out, output)
				}
			}
		})
	}
}

// TestDevelToolchainIsNeverTrustedToLink: under a devel toolchain every
// Build links, writes no build record, and trusts none it finds.
func TestDevelToolchainIsNeverTrustedToLink(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	log := goOnPath(t, true)
	mod := t.TempDir()
	dir := writePkg(t, map[string]string{"main.go": "package main\n\nfunc main() {}\n"})
	if _, err := Instrument(dir, Options{OutDir: mod}); err != nil {
		t.Fatal(err)
	}
	env, err := goEnv(mod)
	if err != nil {
		t.Fatal(err)
	}
	if env["GOVERSION"] != "devel go1.99-0123abc" {
		t.Fatalf("the wrapper's GOVERSION is %q", env["GOVERSION"])
	}
	var bin string
	for i := 0; i < 2; i++ {
		goCalls(t, log)
		if bin, err = Build(mod); err != nil {
			t.Fatal(err)
		}
		if calls := goCalls(t, log); !linked(calls) {
			t.Fatalf("build %d under a devel toolchain linked nothing: %q", i+1, calls)
		}
		if _, err := os.Stat(filepath.Join(mod, buildRecordName)); !os.IsNotExist(err) {
			t.Fatalf("build %d: %s under a devel toolchain: %v", i+1, buildRecordName, err)
		}
	}
	replaceJSON(mod, buildRecordName, buildRecord{Key: buildKey(mod, env), Bin: fileHash(bin)})
	if _, err := Build(mod); err != nil {
		t.Fatal(err)
	}
	if calls := goCalls(t, log); !linked(calls) {
		t.Errorf("a build record was trusted under a devel toolchain: %q", calls)
	}
}

// TestWarmVerdictRunsOneGoCommand: instrumenting and building the pool
// program again into a kept module, in a fresh process, runs go env and
// nothing else; and the binary such a hit reuses is the one go build
// links from that module.
func TestWarmVerdictRunsOneGoCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	if !releaseToolchain(testGoEnv(t)) {
		t.Skip("a devel toolchain's builds are never recorded")
	}
	log := goOnPath(t, false)
	mod := t.TempDir()
	for _, run := range []string{"cold", "warm"} {
		forgetGoEnvs()
		goCalls(t, log)
		instrumentAndBuild(t, poolDir(), mod)
		calls := goCalls(t, log)
		if run == "warm" && !slices.Equal(calls, []string{"env -json"}) {
			t.Errorf("the warm verdict ran go %q, want only go env -json", calls)
		}
	}

	rec := readBuildRecord(mod)
	if err := os.Remove(filepath.Join(mod, buildRecordName)); err != nil {
		t.Fatal(err)
	}
	bin, err := Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	if calls := goCalls(t, log); !linked(calls) {
		t.Fatalf("Build without a record linked nothing: %q", calls)
	}
	if sum := fileHash(bin); sum != rec.Bin {
		t.Errorf("go build linked %s, the record names %s", sum, rec.Bin)
	}
	if again := readBuildRecord(mod); again != rec {
		t.Errorf("the rewritten record %+v differs from the first %+v", again, rec)
	}
}
