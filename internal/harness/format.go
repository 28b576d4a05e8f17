package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/spec"
)

// displayName maps detector ids to Table 1's column headers.
var displayName = map[string]string{
	"ft-mutex": "Mutex",
	"ft-cas":   "CAS",
	"vft-v1":   "v1",
	"vft-v1.5": "v1.5",
	"vft-v2":   "v2",
}

// Format renders the table in the shape of the paper's Table 1: one row per
// program with base time and per-detector overheads, and a geometric-mean
// summary line.
func (t *Table) Format(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "Program\tBase Time (s)\t")
	for _, det := range t.Options.Detectors {
		name := displayName[det]
		if name == "" {
			name = det
		}
		fmt.Fprintf(tw, "%s\t", name)
	}
	fmt.Fprintln(tw)

	lastSuite := ""
	for _, r := range t.Rows {
		if r.Suite != lastSuite && lastSuite != "" {
			fmt.Fprintln(tw, "\t\t"+strings.Repeat("\t", len(t.Options.Detectors)))
		}
		lastSuite = r.Suite
		fmt.Fprintf(tw, "%s\t%.3f\t", r.Program, r.BaseTime.Seconds())
		for _, det := range t.Options.Detectors {
			fmt.Fprintf(tw, "%s\t", fmtOverhead(r.Overhead[det]))
			if n := r.Reports[det]; n > 0 {
				// A race report on the suite is a regression; make it loud.
				fmt.Fprintf(tw, "(!%d races)\t", n)
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw, "\t\t"+strings.Repeat("\t", len(t.Options.Detectors)))
	fmt.Fprint(tw, "Geo Mean\t\t")
	for _, det := range t.Options.Detectors {
		fmt.Fprintf(tw, "%.2f\t", t.GeoMean[det])
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// fastPathRules are the three rules VerifiedFT-v2 handles without the
// variable lock, with the share of all accesses §5 reports for each.
var fastPathRules = []struct {
	rule  spec.Rule
	paper string
}{
	{spec.ReadSameEpoch, "60%"},
	{spec.WriteSameEpoch, "14%"},
	{spec.ReadSharedSameEpoch, "12%"},
}

// RuleMix sums the vft-v2 cells' metrics over the table's programs: the
// accesses checked and how many of them each fast-path rule handled, in
// fastPathRules order. accesses is 0 when v2 was not among the detectors.
func (t *Table) RuleMix() (fired [3]uint64, accesses uint64) {
	for _, r := range t.Rows {
		c := r.Metrics["vft-v2"].Counters
		accesses += c["detector.reads.total"] + c["detector.writes.total"]
		for i, f := range fastPathRules {
			fired[i] += c["detector.rule."+f.rule.Key()]
		}
	}
	return fired, accesses
}

// FormatRuleMix renders the §5 rule-frequency measurement as the table's
// footer: each fast-path rule's share of the accesses v2 checked across
// the programs above and their sum, with the paper's numbers alongside.
// It prints nothing when v2 was not measured.
func (t *Table) FormatRuleMix(w io.Writer) error {
	fired, accesses := t.RuleMix()
	if accesses == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nRule mix under v2 (%d accesses; cf. paper §5)\n\n", accesses)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Rule\tAccesses\tShare\tPaper\t")
	var sum uint64
	for i, f := range fastPathRules {
		sum += fired[i]
		fmt.Fprintf(tw, "[%v]\t%d\t%.1f%%\t%s\t\n", f.rule, fired[i], 100*float64(fired[i])/float64(accesses), f.paper)
	}
	fmt.Fprintf(tw, "lock-free fast paths\t%d\t%.1f%%\t~85%%\t\n", sum, 100*float64(sum)/float64(accesses))
	return tw.Flush()
}

func fmtOverhead(ov float64) string {
	if ov < 0 {
		ov = 0
	}
	switch {
	case ov < 0.1:
		return fmt.Sprintf("%.2f", ov)
	case ov < 10:
		return fmt.Sprintf("%.2f", ov)
	default:
		return fmt.Sprintf("%.1f", ov)
	}
}

// FormatCSV renders the table as CSV (program, suite, base seconds, one
// overhead column per detector) for plotting or spreadsheet import.
func (t *Table) FormatCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"program", "suite", "base_seconds"}
	for _, det := range t.Options.Detectors {
		header = append(header, det+"_overhead")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{r.Program, r.Suite, strconv.FormatFloat(r.BaseTime.Seconds(), 'f', 6, 64)}
		for _, det := range t.Options.Detectors {
			rec = append(rec, strconv.FormatFloat(r.Overhead[det], 'f', 4, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	geo := []string{"geo_mean", "", ""}
	for _, det := range t.Options.Detectors {
		geo = append(geo, strconv.FormatFloat(t.GeoMean[det], 'f', 4, 64))
	}
	if err := cw.Write(geo); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
