package goinstr

import (
	"bytes"
	"embed"
	"fmt"
	"go/ast"
	"go/printer"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// shim holds the runtime shim's sources, which emitModule copies into
// every shadow module's rt/ directory. This directive is the one list of
// the shim's files: the shim imports nothing outside the standard
// library, so the copies build unchanged, and its tests stay behind.
//
//go:embed rt/rt.go rt/wrappers.go
var shim embed.FS

// emitModule writes everything of the shadow module that does not depend
// on the package being instrumented:
//
//	out/
//	  go.mod          module vftshadow (no requirements: builds offline)
//	  rt/             the runtime shim, copied from its embedded sources
//
// Any other .go file in rt/ — left by an earlier vft-go in a kept module —
// is removed, and so is the goid/ directory that earlier vft-go versions
// wrote beside it.
func emitModule(out string) error {
	rtDir := filepath.Join(out, "rt")
	if err := os.MkdirAll(rtDir, 0o755); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	if err := os.RemoveAll(filepath.Join(out, "goid")); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}

	gomod := "module vftshadow\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(out, "go.mod"), []byte(gomod), 0o644); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}

	files, err := shim.ReadDir("rt")
	if err != nil {
		return fmt.Errorf("goinstr: embedded shim: %w", err)
	}
	var names []string
	for _, f := range files {
		src, err := shim.ReadFile("rt/" + f.Name())
		if err != nil {
			return fmt.Errorf("goinstr: embedded shim: %w", err)
		}
		if err := os.WriteFile(filepath.Join(rtDir, f.Name()), src, 0o644); err != nil {
			return fmt.Errorf("goinstr: %w", err)
		}
		names = append(names, f.Name())
	}
	return removeGoFilesExcept(rtDir, names...)
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
