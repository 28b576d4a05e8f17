package goinstr

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/goinstr/rt"
)

// offlineEnv is the environment for building the shadow module: module
// mode with the network off — the shadow module has no requirements, so
// nothing needs resolving — no version-control stamp, which would
// describe whatever repository encloses the shadow module and relink the
// binary whenever that repository's state changed, and -trimpath: the go
// command keys a package outside GOROOT on its directory unless paths are
// trimmed, so without it every new shadow directory — a default run's is
// a fresh temp dir — would compile the shim and the packages it carries
// again. It leaves out the
// shell's PWD, OLDPWD and _: the go command runs in the shadow module
// (cmd.Dir) and reads none of the three, and toolchainKey hashes this
// environment, so they would turn a rerun from another directory, or
// through another path to vft-go, into a cold one.
func offlineEnv() []string {
	env := slices.DeleteFunc(os.Environ(), func(kv string) bool {
		k, _, _ := strings.Cut(kv, "=")
		return k == "PWD" || k == "OLDPWD" || k == "_"
	})
	return append(env,
		"GOPROXY=off",
		"GOFLAGS=-mod=mod -buildvcs=false -trimpath",
		"GO111MODULE=on",
		"GOWORK=off",
	)
}

// Build compiles the shadow module in shadowDir and returns the binary
// path. Build errors carry the compiler output: a build failure of
// rewritten code is a rewriter bug, and the output is the diagnostic.
//
// Build runs no go build while the module's record holds: the toolchain
// (toolchainKey) and the module's build inputs (moduleKey) are the
// recorded ones, and the binary's stamp key (stampKey) is the recorded
// one. That is sound because the binary is a function of exactly what the
// two keys cover — the toolchain and its configuration, under offlineEnv's
// fixed flags, and every file the go command reads in the module — and
// the stamp shows the binary is the file that link wrote. Anything else is
// a miss: Build links again and records the link, keeping what the record
// says of the source only if the module is the one it describes.
func Build(shadowDir string) (string, error) {
	bin := filepath.Join(shadowDir, "vftbin")
	toolchain, module := toolchainKey(), moduleKey(shadowDir)
	rec := readRecord(shadowDir)
	if toolchain != "" && rec.Toolchain == toolchain && rec.Module == module && rec.Bin != "" && rec.Bin == stampKey(bin) {
		return bin, nil
	}
	// go build leaves an existing binary alone when the build ID in it is
	// current, even if the rest of the file is damaged: link afresh.
	os.Remove(bin)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = shadowDir
	cmd.Env = offlineEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("goinstr: go build: %v\n%s", err, out)
	}
	if rec.Toolchain != toolchain || rec.Module != module {
		rec = keptRecord{Toolchain: toolchain, Module: module}
	}
	if rec.Bin = stampKey(bin); rec.Bin != "" {
		writeRecord(shadowDir, rec)
	}
	return bin, nil
}

// Run executes the instrumented binary with trace capture enabled,
// returning the meta sidecar path. The program's own output flows to the
// given writers.
func Run(bin, tracePath string, args []string, stdout, stderr io.Writer) (string, error) {
	tracePath, metaPath, err := clearCapture(tracePath)
	if err != nil {
		return metaPath, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(os.Environ(), rt.EnvTrace+"="+tracePath)
	if err := cmd.Run(); err != nil {
		return metaPath, fmt.Errorf("goinstr: running %s: %w", filepath.Base(bin), err)
	}
	return metaPath, nil
}

// RunTests runs `go test` inside the shadow module with capture enabled
// (the injected TestMain flushes the trace after m.Run).
func RunTests(shadowDir, tracePath string, args []string, stdout, stderr io.Writer) (string, error) {
	tracePath, metaPath, err := clearCapture(tracePath)
	if err != nil {
		return metaPath, err
	}
	cmd := exec.Command("go", append([]string{"test"}, args...)...)
	cmd.Dir = shadowDir
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(offlineEnv(), rt.EnvTrace+"="+tracePath)
	if err := cmd.Run(); err != nil {
		return metaPath, fmt.Errorf("goinstr: go test: %w", err)
	}
	return metaPath, nil
}

// clearCapture makes tracePath absolute, removes the capture there and
// its sidecar, left by an earlier run into the same path, and returns the
// two paths. The shim opens the capture at the program's first event, in
// whatever directory the program is in by then: the shadow package's
// under go test, or wherever a program that changed directory went. The
// verdict is read from the sidecar, so one left over would stand in for
// that of a run that writes none (os.Exit, a fatal signal).
func clearCapture(tracePath string) (string, string, error) {
	tracePath, err := filepath.Abs(tracePath)
	if err != nil {
		return "", "", fmt.Errorf("goinstr: %w", err)
	}
	metaPath := rt.MetaPath(tracePath)
	for _, p := range []string{tracePath, metaPath} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return tracePath, metaPath, fmt.Errorf("goinstr: %w", err)
		}
	}
	return tracePath, metaPath, nil
}
