package goinstr

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePkg writes the named sources into a fresh package directory.
func writePkg(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	pkg, err := Load(writePkg(t, map[string]string{"main.go": src}), false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func objByName(t *testing.T, pkg *Package, name string) types.Object {
	t.Helper()
	for _, obj := range pkg.Info.Defs {
		if obj != nil && obj.Name() == name {
			return obj
		}
	}
	t.Fatalf("no object named %s", name)
	return nil
}

func TestAnalyzeShareClassification(t *testing.T) {
	pkg := loadSrc(t, `package main

var global int

func main() {
	local := 1
	taken := 2
	p := &taken
	captured := 3
	go func() { captured++ }()
	deferred := 5
	defer func() { deferred++ }()
	iife := 7
	func() { iife++ }()
	escaped := 9
	f := func() { escaped++ }
	f()
	_, _, _, _ = p, local, global, iife
}
`)
	sh := Analyze(pkg)
	wantShared := map[string]string{
		"global":   "global",
		"taken":    "address-taken",
		"captured": "captured-by-go",
		"escaped":  "captured",
	}
	for name, wantReason := range wantShared {
		reason, shared := sh.Shared(objByName(t, pkg, name))
		if !shared {
			t.Errorf("%s: want shared (%s), got local", name, wantReason)
		} else if reason != wantReason {
			t.Errorf("%s: reason = %s, want %s", name, reason, wantReason)
		}
	}
	for _, name := range []string{"local", "deferred", "iife", "p"} {
		if reason, shared := sh.Shared(objByName(t, pkg, name)); shared {
			t.Errorf("%s: want local, got shared (%s)", name, reason)
		}
	}
}

func TestAnalyzePointerReceiverTakesAddress(t *testing.T) {
	pkg := loadSrc(t, `package main

import "sync"

func main() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
	n := 0
	_ = n
}
`)
	sh := Analyze(pkg)
	// mu.Lock() on a value receiver of a pointer method is an implicit
	// &mu: the analysis must treat mu as address-taken.
	if _, shared := sh.Shared(objByName(t, pkg, "mu")); !shared {
		t.Error("mu: pointer-receiver call should mark it address-taken")
	}
	if _, shared := sh.Shared(objByName(t, pkg, "n")); shared {
		t.Error("n: plain local should stay local")
	}
}

func TestLoadRejectsNonStdlibImport(t *testing.T) {
	src := "package main\n\nimport \"example.com/dep\"\n\nfunc main() { dep.Go() }\n"
	mod := t.TempDir()
	_, err := Load(writePkg(t, map[string]string{"main.go": src}), false, mod)
	if err == nil || !strings.Contains(err.Error(), "standard-library") {
		t.Fatalf("Load = %v, want non-stdlib import rejection", err)
	}
	// A package rejected while parsing leaves no shadow module behind.
	if left, _ := os.ReadDir(mod); len(left) != 0 {
		t.Errorf("rejected package left %d entries in the shadow directory, first %s", len(left), left[0].Name())
	}
}

func TestLoadSkipsTestFilesByDefault(t *testing.T) {
	main := "package main\n\nfunc main() {}\n"
	tests := "package main\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) {}\n"
	dir := writePkg(t, map[string]string{"main.go": main, "main_test.go": tests})
	mod := t.TempDir()
	pkg, err := Load(dir, false, mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("Load without tests parsed %d files, want 1", len(pkg.Files))
	}
	pkg, err = Load(dir, true, mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("Load with tests parsed %d files, want 2", len(pkg.Files))
	}
}

func TestStatsElisionRate(t *testing.T) {
	if got := (Stats{}).ElisionRate(); got != 0 {
		t.Errorf("empty ElisionRate = %v, want 0", got)
	}
	if got := (Stats{Sites: 4, Elided: 1}).ElisionRate(); got != 0.25 {
		t.Errorf("ElisionRate = %v, want 0.25", got)
	}
}

func TestInstrumentRequiresOutDir(t *testing.T) {
	if _, err := Instrument("testdata/corpus/clean_wg", Options{}); err == nil {
		t.Fatal("Instrument without OutDir should fail")
	}
}

// TestVersionedImportKeepsQualifier: math/rand/v2 declares package rand,
// so its qualifier is not the import path's last element. The rewritten
// file must keep the import as it was, and the shadow module must build.
func TestVersionedImportKeepsQualifier(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shadow module")
	}
	dir := t.TempDir()
	src := `package main

import "math/rand/v2"

func main() {
	n := rand.IntN(4)
	_ = n
}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := Instrument(dir, Options{OutDir: out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(out, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `_ "math/rand/v2"`) {
		t.Fatalf("versioned import was blanked while still referenced:\n%s", b)
	}
	if _, err := Build(out); err != nil {
		t.Fatalf("shadow module with a versioned import does not build: %v", err)
	}
}
