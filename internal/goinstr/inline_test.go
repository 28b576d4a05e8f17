package goinstr

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/goinstr/rt"
	"repro/internal/trace"
)

// TestCheckNeedsSidecar: a capture without its sidecar has no channel
// capacities and no names, so re-checking it is an error that names the
// missing file — not an infeasibility on the first buffered send, and not
// a verdict rendered with raw ids.
func TestCheckNeedsSidecar(t *testing.T) {
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 2000
	buffered := trace.Generate(rand.New(rand.NewSource(3)), cfg)
	if len(cfg.Extensions().ChanCapacity) == 0 {
		t.Fatal("the generated capture has no buffered channel")
	}
	racy := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 7), trace.Wr(1, 7), trace.JoinOp(0, 1)}
	for name, tr := range map[string]trace.Trace{"buffered channels": buffered, "no channels": racy} {
		path := writeCapture(t, tr, 0)
		os.Remove(metaOf(path))
		cr, err := Check(path, metaOf(path))
		if cr != nil || err == nil || !strings.Contains(err.Error(), metaOf(path)) || strings.Contains(err.Error(), "infeasible") {
			t.Errorf("%s: Check without a sidecar = %v, %v; want an error naming %s", name, cr, err, metaOf(path))
		}
	}
}

// TestRunKeepsDirectories: Run and RunTests remove an earlier run's
// capture and sidecar, but refuse a directory at either path, empty or
// not, rather than remove it.
func TestRunKeepsDirectories(t *testing.T) {
	dir := t.TempDir()
	dirs := []string{filepath.Join(dir, "empty"), rt.MetaPath(filepath.Join(dir, "side")), filepath.Join(dir, "full", "sub")}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"empty", "side", "full"} {
		tracePath := filepath.Join(dir, name)
		if _, err := Run(filepath.Join(dir, "vftbin"), tracePath, nil, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), " is a directory") {
			t.Errorf("Run into %s: %v, want an error naming a directory", name, err)
		}
		if _, err := RunTests(dir, tracePath, nil, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), " is a directory") {
			t.Errorf("RunTests into %s: %v, want an error naming a directory", name, err)
		}
	}
	for _, d := range dirs {
		if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
			t.Errorf("directory %s is gone: %v", d, err)
		}
	}
}

// TestGoldenCapture: a program with one goroutine has one schedule, so
// its capture is fixed — and byte for byte the one the shim wrote when it
// still used a bufio.Writer of two writes per record and checked nothing
// inline (testdata/golden, written by that shim).
func TestGoldenCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a program")
	}
	const name = "clean_single_goroutine"
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := Instrument(filepath.Join(corpusRoot(), name), Options{OutDir: out}); err != nil {
		t.Fatal(err)
	}
	bin, err := Build(out)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(out, "trace.bin")
	metaPath, err := Run(bin, tracePath, nil, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("capture differs from the golden one:\n got  %x\n want %x", got, want)
	}
	if _, err := inlineMatchesCheck(tracePath, metaPath); err != nil {
		t.Error(err)
	}
}

// TestShimLinksOnlyTheChecker: the shim carries only the files its check
// compiles, so an instrumented program links none of what the rest of
// internal/trace needs: the gzip sniffing of NewDecoder (compress/*,
// hash/crc32) and the trace generator (math/rand). A file the shim needs
// and does not carry fails every shadow build instead.
func TestShimLinksOnlyTheChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a program")
	}
	out := t.TempDir()
	if _, err := Instrument(filepath.Join(corpusRoot(), "clean_single_goroutine"), Options{OutDir: out}); err != nil {
		t.Fatal(err)
	}
	bin, err := Build(out)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := exec.Command("go", "tool", "nm", bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool nm: %v\n%s", err, syms)
	}
	for _, line := range strings.Split(string(syms), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		for _, pkg := range []string{"compress/", "hash/crc32.", "math/rand."} {
			if strings.HasPrefix(f[len(f)-1], pkg) {
				t.Errorf("the instrumented program links %s", f[len(f)-1])
			}
		}
	}
}
