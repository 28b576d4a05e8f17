package goinstr

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func corpusRoot() string { return filepath.Join("testdata", "corpus") }

// TestCorpusTableMatchesDirs pins the expectation table to the on-disk
// corpus: every program has expectations and every expectation has a
// program.
func TestCorpusTableMatchesDirs(t *testing.T) {
	entries, err := os.ReadDir(corpusRoot())
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			onDisk[e.Name()] = true
		}
	}
	for name := range onDisk {
		if _, ok := corpusWant[name]; !ok {
			t.Errorf("corpus program %s has no expectation table entry", name)
		}
	}
	for name := range corpusWant {
		if !onDisk[name] {
			t.Errorf("expectation table entry %s has no corpus program", name)
		}
	}
	if len(onDisk) < 20 {
		t.Errorf("corpus has %d programs, want >= 20", len(onDisk))
	}
}

// TestCorpusEndToEnd is the front-end's contract test: every corpus
// program is instrumented (both elision modes), built, executed and
// checked; racy programs must name their racy variables, clean programs
// must be silent, and the reports must be byte-identical across modes.
func TestCorpusEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus end-to-end is slow (builds and runs every program twice)")
	}
	var mu sync.Mutex
	elided, total := 0, 0
	t.Cleanup(func() {
		if total > 0 && elided*2 < total {
			t.Errorf("elision fired on %d/%d programs, want at least half", elided, total)
		}
	})
	for _, name := range CorpusNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := CheckCorpusProgram(corpusRoot(), name)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			total++
			if out.Stats.Elided > 0 {
				elided++
			}
			mu.Unlock()
			t.Logf("sites=%d elided=%d (%.0f%%) events=%d/%d reports=%q",
				out.Stats.Sites, out.Stats.Elided, 100*out.Stats.ElisionRate(),
				out.Events, out.EventsOff, out.Lines)
		})
	}
}

// TestCorpusGroundTruth cross-checks the corpus verdicts against the Go
// race detector: racy programs must trip `go run -race`, clean ones must
// not. Gated behind VFT_GO_RACE_GT=1 — it rebuilds every program with
// the race runtime, which is slow and needs cgo.
func TestCorpusGroundTruth(t *testing.T) {
	if os.Getenv("VFT_GO_RACE_GT") == "" {
		t.Skip("set VFT_GO_RACE_GT=1 to cross-check the corpus against go run -race")
	}
	for _, name := range CorpusNames() {
		want := len(corpusWant[name]) > 0
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "-race", "./"+filepath.Join(corpusRoot(), name))
			var sb strings.Builder
			cmd.Stdout, cmd.Stderr = &sb, &sb
			_ = cmd.Run() // racy programs may exit nonzero under -race
			got := strings.Contains(sb.String(), "WARNING: DATA RACE")
			if got != want {
				t.Errorf("go run -race race=%v, corpus says racy=%v\n%s", got, want, sb.String())
			}
		})
	}
}
