package goinstr

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

func corpusRoot() string { return filepath.Join("testdata", "corpus") }

// corpusWant maps each program in testdata/corpus to the variables its
// races are on (substring-matched against the canonical report lines); an
// empty list means the program must check clean.
var corpusWant = map[string][]string{
	"racy_global_counter":   {"counter"},
	"clean_mutex_counter":   {},
	"racy_map":              {"scores"},
	"clean_map_mutex":       {},
	"racy_closure_capture":  {"x"},
	"clean_closure_channel": {},
	"racy_wg_misuse":        {"x"},
	"clean_wg":              {},
	"racy_buffered_chan":    {"x"},
	"clean_buffered_chan":   {},
	"racy_double_checked":   {"ready", "value"},
	"clean_once":            {},
	"racy_slice_elem":       {"s[]"},
	"clean_slice_split":     {},
	"racy_struct_field":     {"p.x"},
	"clean_struct_mutex":    {},
	"racy_plain_flag":       {"flag"},
	"clean_atomic_flag":     {},
	"clean_unbuffered_pub":  {},
	"racy_lock_wrong_mutex": {"x"},
	"clean_rwmutex":         {},
	"racy_range_chan":       {"x"},
	"clean_range_chan":      {},

	"clean_atomic_vocab":     {},
	"racy_atomic_other_flag": {"data"},
	"clean_embedded_mutex":   {},
	"racy_embedded_mutex":    {"c.n"},
}

// corpusNames returns the expectation table's program names, sorted.
func corpusNames() []string {
	names := make([]string, 0, len(corpusWant))
	for n := range corpusWant {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// corpusOutcome is one elide-on run of a corpus program, after the
// elide-off twin has been checked for parity.
type corpusOutcome struct {
	// lines is the canonical report rendering (identical across modes).
	lines []string
	// stats are the elide-on rewrite counters.
	stats Stats
	// events / eventsOff are the captured trace lengths per mode: two
	// separate executions, so for display only — a program that polls
	// logs as many events as the scheduler made it poll.
	events, eventsOff int
}

// runCorpusOnce instruments, builds, runs and checks one program in one
// elision mode, in a throwaway shadow directory.
func runCorpusOnce(dir string, elide bool) ([]string, Stats, int, error) {
	out, err := os.MkdirTemp("", "vftshadow")
	if err != nil {
		return nil, Stats{}, 0, err
	}
	defer os.RemoveAll(out)
	inst, err := Instrument(dir, Options{Elide: elide, OutDir: out})
	if err != nil {
		return nil, Stats{}, 0, err
	}
	bin, err := Build(out)
	if err != nil {
		return nil, Stats{}, 0, err
	}
	tracePath := filepath.Join(out, "trace.bin")
	metaPath, err := Run(bin, tracePath, nil, io.Discard, io.Discard)
	if err != nil {
		return nil, Stats{}, 0, err
	}
	cr, err := Check(tracePath, metaPath)
	if err != nil {
		return nil, Stats{}, 0, err
	}
	if uint64(cr.Events) != cr.Meta.Events {
		return nil, Stats{}, 0, fmt.Errorf("checked %d events, the shim logged %d", cr.Events, cr.Meta.Events)
	}
	return cr.Canonical(), inst.Stats, cr.Events, nil
}

// checkCorpusProgram runs one corpus program through both elision modes
// and enforces the contract: reports byte-identical across modes,
// matching the expectation table, with elision only ever removing
// instrumentation — both modes see the same sites and elide-off
// instruments every one of them.
func checkCorpusProgram(name string) (*corpusOutcome, error) {
	want := corpusWant[name]
	dir := filepath.Join(corpusRoot(), name)
	onLines, onStats, onEvents, err := runCorpusOnce(dir, true)
	if err != nil {
		return nil, fmt.Errorf("%s (elide on): %w", name, err)
	}
	offLines, offStats, offEvents, err := runCorpusOnce(dir, false)
	if err != nil {
		return nil, fmt.Errorf("%s (elide off): %w", name, err)
	}

	onText := strings.Join(onLines, "\n")
	offText := strings.Join(offLines, "\n")
	if onText != offText {
		return nil, fmt.Errorf("%s: elision changed the reports\n  elide on:  %q\n  elide off: %q", name, onText, offText)
	}
	if len(onLines) != len(want) {
		return nil, fmt.Errorf("%s: got %d reports %q, want %d", name, len(onLines), onLines, len(want))
	}
	for _, v := range want {
		found := false
		for _, l := range onLines {
			if strings.Contains(l, v) {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%s: no report names %q in %q", name, v, onLines)
		}
	}
	if onStats.Sites != offStats.Sites || offStats.Elided != 0 {
		return nil, fmt.Errorf("%s: elision changed more than which sites are instrumented\n  elide on:  %+v\n  elide off: %+v", name, onStats, offStats)
	}
	return &corpusOutcome{lines: onLines, stats: onStats, events: onEvents, eventsOff: offEvents}, nil
}

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
	for _, name := range corpusNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := checkCorpusProgram(name)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			total++
			if out.stats.Elided > 0 {
				elided++
			}
			mu.Unlock()
			t.Logf("sites=%d elided=%d (%.0f%%) events=%d/%d reports=%q",
				out.stats.Sites, out.stats.Elided, 100*out.stats.ElisionRate(),
				out.events, out.eventsOff, out.lines)
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
	for _, name := range corpusNames() {
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
