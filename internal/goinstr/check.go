package goinstr

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	verifiedft "repro"
	"repro/internal/goinstr/rt"
	"repro/internal/trace"
)

// CheckResult is the outcome of replaying a captured trace through the
// verified checker.
type CheckResult struct {
	// Reports are the raw detector reports, in trace order.
	Reports []verifiedft.Report
	// Meta is the run's sidecar (names, capacities, shim counters).
	Meta *rt.Meta
	// Events is the number of operations the trace decoded to.
	Events int
}

// Check streams the binary trace at tracePath through the verified
// detector, with the channel capacities from the meta sidecar the shim
// wrote: the capture is decoded once and never held in memory. Extra
// options (a sampling tier, a clock implementation) are appended after
// the defaults, so they win. A capture that does not decode to its end
// yields the decoder's positioned error and no reports.
func Check(tracePath, metaPath string, extra ...verifiedft.CheckOption) (*CheckResult, error) {
	meta := &rt.Meta{}
	if raw, err := os.ReadFile(metaPath); err == nil {
		if err := json.Unmarshal(raw, meta); err != nil {
			return nil, fmt.Errorf("goinstr: meta sidecar: %w", err)
		}
	}
	caps := map[verifiedft.LockID]int{}
	for id, c := range meta.ChanCaps() {
		caps[verifiedft.LockID(id)] = c
	}
	opts := []verifiedft.CheckOption{verifiedft.WithMaxReportsPerVar(1)}
	if len(caps) > 0 {
		opts = append(opts, verifiedft.WithChanCapacities(caps))
	}
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

// VarName renders a report's variable with its source-level name from
// the sidecar ("counter main.go:7:6"), falling back to the raw id.
func (cr *CheckResult) VarName(r verifiedft.Report) string {
	if cr.Meta != nil {
		if name, ok := cr.Meta.Vars[int32(r.X)]; ok && name != "" {
			return name
		}
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
