package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// A Table 1 cell's metrics are the detector's own counters, frozen under
// "detector." from its last timed iteration, and coherent: the fast/slow
// split sums to the total and the shadow gauges are present.
func TestMetricsPassCoherence(t *testing.T) {
	table, err := Run(Options{Iters: 1, Quick: true, Detectors: []string{"vft-v2"}, Programs: []string{"montecarlo"}})
	if err != nil {
		t.Fatal(err)
	}
	snap := table.Rows[0].Metrics["vft-v2"]

	reads := snap.Counters["detector.reads.total"]
	writes := snap.Counters["detector.writes.total"]
	if reads == 0 || writes == 0 {
		t.Fatalf("empty access counts: %v", snap.Counters)
	}
	if snap.Counters["detector.reads.fast"]+snap.Counters["detector.reads.slow"] != reads {
		t.Errorf("read fast/slow split does not sum to total")
	}
	if snap.Gauges["detector.shadow.vars"] == 0 {
		t.Errorf("shadow.vars gauge empty")
	}
}

// The paper's §5 claim behind the v2 design: on real workload kernels, the
// three lock-free pure blocks — [Read Same Epoch], [Write Same Epoch] and
// [Read Shared Same Epoch] — cover the overwhelming majority of accesses.
// montecarlo and pmd are the suite's clearest exemplars (the suite-wide
// share sits lower, pulled down by barrier-heavy kernels like sor).
func TestV2SameEpochRulesDominate(t *testing.T) {
	table, err := Run(Options{Iters: 1, Quick: true, Detectors: []string{"vft-v2"}, Programs: []string{"montecarlo", "pmd"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		name, snap := row.Program, row.Metrics["vft-v2"]
		same := snap.Counters["detector.rule.read_same_epoch"] +
			snap.Counters["detector.rule.write_same_epoch"] +
			snap.Counters["detector.rule.read_shared_same_epoch"]
		total := snap.Counters["detector.reads.total"] + snap.Counters["detector.writes.total"]
		if total == 0 {
			t.Fatalf("%s: no accesses recorded", name)
		}
		share := float64(same) / float64(total)
		if share <= 0.9 {
			t.Errorf("%s: same-epoch rules cover %.1f%% of accesses, want >90%%",
				name, 100*share)
		}
		if fp := FastPathShare(snap); fp <= 0.9 {
			t.Errorf("%s: fast-path share %.1f%%, want >90%%", name, 100*fp)
		}
	}
}

// The bench JSON must round-trip the new observability fields.
func TestWriteJSONCarriesMetrics(t *testing.T) {
	opts := Options{
		Warmup: 0, Iters: 1, Quick: true,
		Detectors: []string{"vft-v2"},
		Programs:  []string{"montecarlo"},
		Registry:  obs.NewRegistry(),
	}
	table, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Rows []struct {
			FastPath map[string]float64      `json:"fast_path"`
			Metrics  map[string]obs.Snapshot `json:"metrics"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Rows) != 1 {
		t.Fatalf("rows = %d", len(decoded.Rows))
	}
	r := decoded.Rows[0]
	if r.FastPath["vft-v2"] <= 0.9 {
		t.Errorf("fast_path = %v", r.FastPath)
	}
	m := r.Metrics["vft-v2"]
	if m.Counters["detector.reads.total"] == 0 {
		t.Errorf("metrics snapshot missing detector counters: %v", m.Counters)
	}
	// The live registry received the frozen cell source and progress gauge.
	live := opts.Registry.Snapshot()
	if live.Counters["montecarlo.vft-v2.detector.reads.total"] == 0 {
		t.Errorf("registry missing frozen cell source: %v", live.Counters)
	}
	if live.Gauges["bench.cells_done"] != 1 {
		t.Errorf("bench.cells_done = %d", live.Gauges["bench.cells_done"])
	}
}

// The §5 footer over the whole suite at test sizes: the three lock-free
// rules must carry at least half of v2's accesses (the paper reports ~85%;
// the floor is the one BenchmarkRuleFrequency held), the printed sum is the
// number RuleMix returns, and a table without a v2 column prints nothing.
func TestRuleMixFooter(t *testing.T) {
	table, err := Run(Options{Iters: 1, Quick: true, Detectors: []string{"vft-v2"}})
	if err != nil {
		t.Fatal(err)
	}
	fired, accesses := table.RuleMix()
	share := 100 * float64(fired[0]+fired[1]+fired[2]) / float64(accesses)
	if accesses == 0 || share < 50 {
		t.Fatalf("fast-path share %.1f%% of %d accesses implausibly low", share, accesses)
	}
	var buf bytes.Buffer
	if err := table.FormatRuleMix(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[Read Same Epoch]", "[Write Same Epoch]", "[Read Shared Same Epoch]",
		"60%", "14%", "12%"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("footer missing %q:\n%s", want, buf.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got, want := strings.Join(strings.Fields(lines[len(lines)-1]), " "),
		fmt.Sprintf("lock-free fast paths %d %.1f%% ~85%%", fired[0]+fired[1]+fired[2], share); got != want {
		t.Errorf("sum line %q, want %q", got, want)
	}
	if n := strings.Count(buf.String(), "\n"); n > 40 {
		t.Errorf("footer is %d lines, budget 40", n)
	}

	buf.Reset()
	if err := (&Table{Rows: []Row{{Program: "series"}}}).FormatRuleMix(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("footer without v2 metrics: %q, %v; want nothing", buf.String(), err)
	}
}
