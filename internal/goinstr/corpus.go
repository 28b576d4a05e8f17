package goinstr

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CorpusExpectations maps each program in testdata/corpus to the
// variables its races are on (substring-matched against the canonical
// report lines); an empty list means the program must check clean. The
// table is shared by the package's end-to-end test and scripts/go-smoke
// so the two cannot drift.
func CorpusExpectations() map[string][]string {
	out := make(map[string][]string, len(corpusWant))
	for k, v := range corpusWant {
		out[k] = append([]string(nil), v...)
	}
	return out
}

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
}

// CorpusNames returns the expectation table's program names, sorted.
func CorpusNames() []string {
	names := make([]string, 0, len(corpusWant))
	for n := range corpusWant {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CorpusOutcome is one elide-on run of a corpus program, after the
// elide-off twin has been checked for parity.
type CorpusOutcome struct {
	// Lines is the canonical report rendering (identical across modes).
	Lines []string
	// Stats are the elide-on rewrite counters.
	Stats Stats
	// Events / EventsOff are the captured trace lengths per mode: two
	// separate executions, so for display only — a program that polls
	// logs as many events as the scheduler made it poll.
	Events, EventsOff int
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

// CheckCorpusProgram runs one corpus program through both elision modes
// and enforces the contract: reports byte-identical across modes,
// matching the expectation table, with elision only ever removing
// instrumentation — both modes see the same sites and elide-off
// instruments every one of them.
func CheckCorpusProgram(corpusDir, name string) (*CorpusOutcome, error) {
	want, ok := corpusWant[name]
	if !ok {
		return nil, fmt.Errorf("%s: not in the expectation table", name)
	}
	dir := filepath.Join(corpusDir, name)
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
	return &CorpusOutcome{Lines: onLines, Stats: onStats, Events: onEvents, EventsOff: offEvents}, nil
}
