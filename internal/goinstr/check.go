package goinstr

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"

	verifiedft "repro"
	"repro/internal/goinstr/rt"
	"repro/internal/sample"
	"repro/internal/trace"
)

// CheckResult is a verdict on one run of an instrumented program.
type CheckResult struct {
	// Reports are the raw detector reports, in trace order.
	Reports []verifiedft.Report
	// Meta is the run's sidecar (verdict, the reported variables' names,
	// channel capacities, shim counters).
	Meta *rt.Meta
	// Events is the number of operations checked.
	Events int
}

// Verdict returns the verdict the shim's inline check wrote into the
// sidecar at metaPath (see package rt): the reports, or the validator's
// positioned error for a capture that went infeasible. A run that left no
// sidecar — the program called os.Exit, or died of a fatal signal, before
// the shim's deferred Shutdown — has no verdict and is an error.
func Verdict(metaPath string) (*CheckResult, error) {
	meta, err := readMeta(metaPath)
	if err != nil {
		return nil, err
	}
	if meta.Error != "" {
		return nil, fmt.Errorf("goinstr: checking trace: %s", meta.Error)
	}
	return &CheckResult{Reports: meta.Reports, Meta: meta, Events: int(meta.Events)}, nil
}

// readMeta reads the sidecar at metaPath, which must exist.
func readMeta(metaPath string) (*rt.Meta, error) {
	raw, err := os.ReadFile(metaPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("goinstr: no meta sidecar %s: the shim writes it in the Shutdown the program defers, which os.Exit or a fatal signal skips", metaPath)
	}
	if err != nil {
		return nil, fmt.Errorf("goinstr: %w", err)
	}
	meta := &rt.Meta{}
	if err := json.Unmarshal(raw, meta); err != nil {
		return nil, fmt.Errorf("goinstr: meta sidecar %s: %w", metaPath, err)
	}
	return meta, nil
}

// Check re-checks a capture: it streams the binary trace at tracePath
// through the verified detector, with the channel capacities from the
// meta sidecar the shim wrote, which must exist. The capture is decoded
// once and never held in memory. It finds what the shim's inline check
// found (Verdict); vft-go renders that, and Check serves the tests and
// benchmarks that hold the two together. Extra options (a sampling tier,
// a detector variant) are appended after the defaults, so they win.
// A capture that does not decode to its end yields the decoder's
// positioned error and no reports.
func Check(tracePath, metaPath string, extra ...verifiedft.CheckOption) (*CheckResult, error) {
	meta, err := readMeta(metaPath)
	if err != nil {
		return nil, err
	}
	opts := []verifiedft.CheckOption{verifiedft.WithMaxReportsPerVar(1), verifiedft.WithChanCapacities(meta.Chans)}
	opts = append(opts, extra...)

	f, err := os.Open(tracePath)
	if err != nil {
		return nil, fmt.Errorf("goinstr: %w", err)
	}
	defer f.Close()
	dec := trace.NewBinaryDecoder(f)
	reports, err := verifiedft.CheckSource(dec, opts...)
	if err != nil && err == dec.Err() {
		return nil, fmt.Errorf("goinstr: decoding trace: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("goinstr: checking trace: %w", err)
	}
	return &CheckResult{Reports: reports, Meta: meta, Events: dec.Decoded()}, nil
}

// Sample keeps the reports on variables pol samples, renumbered in
// detection order. The sampling tier's decision is a pure function of the
// policy and the variable, and a variable's races do not depend on the
// accesses to others, so a precise verdict sampled this way equals a check
// of the capture under pol (FuzzSamplingSoundness holds the two equal).
func (cr *CheckResult) Sample(pol sample.Policy) {
	var kept []verifiedft.Report
	for _, r := range cr.Reports {
		if pol.Sampled(r.X) {
			r.Seq = len(kept)
			kept = append(kept, r)
		}
	}
	cr.Reports = kept
}

// VarName renders a report's variable with its source-level name from
// the sidecar ("counter main.go:7:6"), which names every variable the
// inline check reported, falling back to the raw id — for a report of
// another check (vft-server's) that the inline check did not make.
func (cr *CheckResult) VarName(r verifiedft.Report) string {
	if name := cr.Meta.Vars[r.X]; name != "" {
		return name
	}
	return fmt.Sprintf("x%d", r.X)
}

// Canonical renders the reports as a sorted, de-duplicated list of
// "race on <name>" lines. Runtime ids depend on first-touch order and
// differ between elide-on and elide-off runs; names do not, so this is
// the representation the parity test compares byte-for-byte.
func (cr *CheckResult) Canonical() []string {
	seen := map[string]bool{}
	var lines []string
	for _, r := range cr.Reports {
		line := "race on " + cr.VarName(r)
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return lines
}
