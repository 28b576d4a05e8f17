package goinstr

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/printer"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal"
)

// emitModule writes everything of the shadow module that does not depend
// on the package being instrumented:
//
//	out/
//	  go.mod          module vftshadow (no requirements: builds offline)
//	  rt/             the runtime shim
//	  rt/internal/    the packages it links: kernel, epoch, vc, spec, trace
//
// Every file comes from internal.ShimSources, the one list of the shim's
// files; the shim and its packages import nothing else outside the
// standard library, so the copies build once their "repro/internal/"
// imports name the copies instead. Any other .go file in those
// directories, and any other directory in rt/internal — left by an earlier
// vft-go in a kept module — is removed, and so is the goid/ directory that
// earlier vft-go versions wrote beside rt/.
func emitModule(out string) error {
	rtDir := filepath.Join(out, "rt")
	if err := os.MkdirAll(rtDir, 0o755); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	if err := os.RemoveAll(filepath.Join(out, "goid")); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	if err := writeChanged(filepath.Join(out, "go.mod"), []byte(shadowModule+"\ngo 1.22\n")); err != nil {
		return err
	}

	// Every embedded file, by the directory of its package.
	pkgs := map[string][]string{}
	err := fs.WalkDir(internal.ShimSources, ".", func(name string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			pkgs[path.Dir(name)] = append(pkgs[path.Dir(name)], path.Base(name))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("goinstr: embedded shim: %w", err)
	}
	leafDir := filepath.Join(rtDir, "internal")
	var leaves []string
	for src, files := range pkgs {
		dir := rtDir
		if src != "goinstr/rt" {
			leaves = append(leaves, src)
			dir = filepath.Join(leafDir, src)
		}
		if err := emitShimPackage(dir, src, files); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(leafDir)
	if err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	for _, e := range entries {
		if !slices.Contains(leaves, e.Name()) {
			if err := os.RemoveAll(filepath.Join(leafDir, e.Name())); err != nil {
				return fmt.Errorf("goinstr: %w", err)
			}
		}
	}
	return nil
}

// shadowModule is the first line of a shadow module's go.mod.
const shadowModule = "module vftshadow\n"

// outDirOK reports whether Instrument may emit into out: a directory that
// does not exist, an empty one, or a shadow module. Emit rewrites go.mod
// and deletes every other .go file in the module root, so any other
// directory — the package's own, another module — would lose its files.
func outDirOK(out string) error {
	entries, err := os.ReadDir(out)
	gomod, _ := os.ReadFile(filepath.Join(out, "go.mod"))
	if errors.Is(err, fs.ErrNotExist) || err == nil && len(entries) == 0 || bytes.HasPrefix(gomod, []byte(shadowModule)) {
		return nil
	}
	return fmt.Errorf("goinstr: %s is neither empty nor a shadow module (a go.mod declaring module vftshadow): writing the shadow module there would replace its files", out)
}

// shimImport is the import path prefix of the shim's packages in this
// repository, and shadowImport theirs in a shadow module.
const (
	shimImport   = `"repro/internal/`
	shadowImport = `"vftshadow/rt/internal/`
)

// emitShimPackage writes the files of the embedded package src into dir,
// naming the shadow module's copies in its imports, and removes every
// other .go file from dir.
func emitShimPackage(dir, src string, files []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("goinstr: %w", err)
	}
	for _, f := range files {
		code, err := internal.ShimSources.ReadFile(src + "/" + f)
		if err != nil {
			return fmt.Errorf("goinstr: embedded shim: %w", err)
		}
		code = bytes.ReplaceAll(code, []byte(shimImport), []byte(shadowImport))
		if err := writeChanged(filepath.Join(dir, f), code); err != nil {
			return err
		}
	}
	return removeGoFilesExcept(dir, files...)
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
		if err := writeChanged(filepath.Join(out, pkg.Names[i]), buf.Bytes()); err != nil {
			return err
		}
	}

	written := pkg.Names
	if includeTests && !hasTestMain(pkg) {
		tm := fmt.Sprintf(testMainSrc, pkg.Pkg.Name())
		if err := writeChanged(filepath.Join(out, testMainName), []byte(tm)); err != nil {
			return err
		}
		written = append(slices.Clip(written), testMainName)
	}
	return removeGoFilesExcept(out, written...)
}

// writeChanged makes the file at path hold data, and leaves it alone if it
// already does: a kept module's record names its files by their stamps
// (see moduleKey), so a file rewritten with the bytes it held would still
// cost Build a link. A changed file is written beside the old one and
// renamed over it, which gives it a new inode whatever the filesystem's
// timestamp resolution.
func writeChanged(path string, data []byte) error {
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		return nil
	}
	tmp := path + ".vft-new"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("goinstr: %w", err)
	}
	return nil
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
