package goinstr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/goid"
	"repro/internal/goinstr/rt"
)

// emitModule writes everything of the shadow module that does not depend
// on the package being instrumented:
//
//	out/
//	  go.mod          module vftshadow (no requirements: builds offline)
//	  rt/             the runtime shim, copied from its embedded sources
//	  goid/           the shim's only repo dependency, likewise embedded
//
// The shim sources import "repro/internal/goid" when compiled inside this
// repo; the copy rewrites that path to "vftshadow/goid" so the shadow
// module resolves everything within itself. Any other .go file in rt/ or
// goid/ — left by an earlier vft-go in a kept module — is removed.
func emitModule(out string) error {
	for _, sub := range []string{"", "rt", "goid"} {
		if err := os.MkdirAll(filepath.Join(out, sub), 0o755); err != nil {
			return fmt.Errorf("goinstr: %w", err)
		}
	}

	gomod := "module vftshadow\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(out, "go.mod"), []byte(gomod), 0o644); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}

	for _, name := range []string{"rt.go", "wrappers.go"} {
		src, err := rt.Sources.ReadFile(name)
		if err != nil {
			return fmt.Errorf("goinstr: embedded shim: %w", err)
		}
		src = bytes.ReplaceAll(src, []byte(`"repro/internal/goid"`), []byte(`"vftshadow/goid"`))
		if err := os.WriteFile(filepath.Join(out, "rt", name), src, 0o644); err != nil {
			return fmt.Errorf("goinstr: %w", err)
		}
	}
	gsrc, err := goid.Sources.ReadFile("goid.go")
	if err != nil {
		return fmt.Errorf("goinstr: embedded goid: %w", err)
	}
	if err := os.WriteFile(filepath.Join(out, "goid", "goid.go"), gsrc, 0o644); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	if err := removeGoFilesExcept(filepath.Join(out, "rt"), "rt.go", "wrappers.go"); err != nil {
		return err
	}
	return removeGoFilesExcept(filepath.Join(out, "goid"), "goid.go")
}

// emitPackage adds the rewritten sources, printed from the mutated ASTs,
// to the shadow module in out, and for `vft-go test` a TestMain that
// flushes the trace unless the package brings its own. It then removes
// every other .go file from the module root: in a kept module those are
// an earlier package's, and go build would compile them too.
func emitPackage(out string, pkg *Package, includeTests bool) error {
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	for i, f := range pkg.Files {
		var buf bytes.Buffer
		if err := cfg.Fprint(&buf, pkg.Fset, f); err != nil {
			return fmt.Errorf("goinstr: printing %s: %w", pkg.Names[i], err)
		}
		if err := os.WriteFile(filepath.Join(out, pkg.Names[i]), buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("goinstr: %w", err)
		}
	}

	written := pkg.Names
	if includeTests && !hasTestMain(pkg) {
		tm := fmt.Sprintf(testMainSrc, pkg.Pkg.Name())
		if err := os.WriteFile(filepath.Join(out, testMainName), []byte(tm), 0o644); err != nil {
			return fmt.Errorf("goinstr: %w", err)
		}
		written = append(slices.Clip(written), testMainName)
	}
	return removeGoFilesExcept(out, written...)
}

// removeGoFilesExcept deletes every .go file directly in dir but keep.
func removeGoFilesExcept(dir string, keep ...string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !slices.Contains(keep, n) {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return fmt.Errorf("goinstr: %w", err)
			}
		}
	}
	return nil
}

func hasTestMain(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "TestMain" {
				return true
			}
		}
	}
	return false
}

// testMainName is the file emitPackage writes testMainSrc to.
const testMainName = "vft_testmain_test.go"

const testMainSrc = `package %s

import (
	"os"
	"testing"

	__vft "vftshadow/rt"
)

func TestMain(m *testing.M) {
	code := m.Run()
	__vft.Shutdown()
	os.Exit(code)
}
`
