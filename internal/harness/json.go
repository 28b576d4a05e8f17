package harness

import (
	"encoding/json"
	"io"

	"repro/internal/obs"
)

// jsonTable is the machine-readable shape of Table 1: stable field names
// for downstream tooling (plotting, regression tracking) regardless of how
// the text formatting evolves.
type jsonTable struct {
	Provenance Provenance `json:"provenance"`
	Detectors  []string   `json:"detectors"`
	Iters      int        `json:"iters"`
	Warmup     int        `json:"warmup"`
	Quick      bool       `json:"quick"`
	Rows       []jsonRow  `json:"rows"`
	// GeoMean maps detector name to the geometric mean of its overheads —
	// the summary line of Table 1.
	GeoMean map[string]float64 `json:"geo_mean"`
}

type jsonRow struct {
	Program     string             `json:"program"`
	Suite       string             `json:"suite"`
	BaseSeconds float64            `json:"base_seconds"`
	Overhead    map[string]float64 `json:"overhead"`
	// Reports carries per-detector race-report counts; 0 everywhere on a
	// healthy run, kept in the schema so regressions are machine-visible.
	Reports map[string]int `json:"reports"`
	// FastPath maps detector name to the measured fast-path hit rate of the
	// last timed iteration, the companion number to each overhead column.
	FastPath map[string]float64 `json:"fast_path,omitempty"`
	// Metrics carries each detector's detector.* counters from that
	// iteration.
	Metrics map[string]obs.Snapshot `json:"metrics,omitempty"`
}

// WriteJSON renders the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	out := jsonTable{
		Provenance: CollectProvenance(),
		Detectors:  t.Options.Detectors,
		Iters:      t.Options.Iters,
		Warmup:     t.Options.Warmup,
		Quick:      t.Options.Quick,
		GeoMean:    t.GeoMean,
	}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, jsonRow{
			Program:     r.Program,
			Suite:       r.Suite,
			BaseSeconds: r.BaseTime.Seconds(),
			Overhead:    r.Overhead,
			Reports:     r.Reports,
			FastPath:    r.FastPath,
			Metrics:     r.Metrics,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
