package ingest

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Report is the wire form of one race report: the exact fields of a
// core.Report under stable JSON names, plus the canonical formatted text.
// The mapping is lossless both ways (Core undoes FromCore field for
// field), which is what lets the service's end-to-end tests prove
// byte-for-byte parity between reports fetched over HTTP and the reports
// an offline CheckTrace of the same stream produces.
type Report struct {
	Detector string      `json:"detector"`
	Rule     spec.Rule   `json:"rule"`
	Thread   epoch.Tid   `json:"thread"`
	Var      trace.Var   `json:"var"`
	Prev     epoch.Epoch `json:"prev"`
	Seq      int         `json:"seq"`
	Text     string      `json:"text"`
}

// FromCore converts a detector report to its wire form.
func FromCore(r core.Report) Report {
	return Report{
		Detector: r.Detector,
		Rule:     r.Rule,
		Thread:   r.T,
		Var:      r.X,
		Prev:     r.Prev,
		Seq:      r.Seq,
		Text:     r.String(),
	}
}

// Core converts a wire report back to the detector representation.
func (r Report) Core() core.Report {
	return core.Report{
		Detector: r.Detector,
		Rule:     r.Rule,
		T:        r.Thread,
		X:        r.Var,
		Prev:     r.Prev,
		Seq:      r.Seq,
	}
}

// FromCoreAll converts a report list; a nil or empty list becomes the
// empty slice so JSON encodes [] rather than null.
func FromCoreAll(rs []core.Report) []Report {
	out := make([]Report, len(rs))
	for i, r := range rs {
		out[i] = FromCore(r)
	}
	return out
}
