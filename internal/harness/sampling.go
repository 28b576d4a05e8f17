package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"time"

	verifiedft "repro"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/sample"
	"repro/internal/spec"
	"repro/internal/trace"
)

// SamplingOptions configures the overhead-vs-recall benchmark of the
// sampling tier (EXPERIMENTS.md E22).
type SamplingOptions struct {
	// Variant is the precise base variant under the tier (default vft-v2).
	Variant string
	// Rates are the sampling rates to sweep, measured in descending order
	// (default 1, 0.1, 0.01, 0.001).
	Rates []float64
	// Seed keys the sampling hash.
	Seed uint64
	// Warmup and Iters are per-cell warm-up and measured iteration counts;
	// timed cells report the best measured iteration (min-of-N, the usual
	// discipline for microbenchmarks whose noise is one-sided).
	Warmup, Iters int
	// Quick shrinks the op counts to test sizes.
	Quick bool
}

func (o SamplingOptions) withDefaults() SamplingOptions {
	if o.Variant == "" {
		o.Variant = "vft-v2"
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{1, 0.1, 0.01, 0.001}
	}
	rates := append([]float64(nil), o.Rates...)
	sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
	o.Rates = rates
	if o.Iters <= 0 {
		o.Iters = 5
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	return o
}

// SamplingRow is one rate's worth of the sweep.
type SamplingRow struct {
	Rate float64

	// AccessNs is the micro arm: mean cost of one detector Read over a
	// uniform working set of microVars variables at this rate — at low
	// rates almost every access takes the suppressed path (one atomic
	// decision-word load), so this number approaches the no-detector
	// baseline from above.
	AccessNs float64

	// The overhead arm: best-of-Iters wall time to check the generated
	// trace (TraceOps operations) at this rate.
	CheckSeconds       float64
	NsPerOp            float64
	Reports            int
	ShadowBytes        uint64
	SampledVars        uint64
	SuppressedVars     uint64
	SuppressedAccesses uint64

	// The recall arm, over the conformance corpus: distinct racy
	// variables found vs the precise tier's total, plus the soundness
	// gates — reports must equal the precise reports filtered to sampled
	// variables (SoundSubset), and at rate 1.0 the full lists must be
	// deeply equal (Identical).
	RacyFound, RacyTotal int
	Recall               float64
	Identical            bool
	SoundSubset          bool
}

// SamplingTable is the benchmark result behind BENCH_sampling.json.
type SamplingTable struct {
	Options SamplingOptions

	// BaselineNs is the micro loop against a no-op detector through the
	// same Detector interface: instrumentation present, detection absent —
	// the floor the suppressed path is judged against.
	BaselineNs float64
	// PreciseNs is the same micro loop against the precise tier.
	PreciseNs float64
	// MicroOps and MicroVars size the micro loop.
	MicroOps, MicroVars int

	// TraceOps is the overhead arm's trace length;
	// PreciseCheckSeconds its precise-tier (unsampled) check time.
	TraceOps            int
	PreciseCheckSeconds float64

	Rows []SamplingRow
}

// noopDetector is the micro baseline: every handler through the same
// interface dispatch the real detectors pay, doing nothing.
type noopDetector struct{}

func (noopDetector) Read(epoch.Tid, trace.Var)     {}
func (noopDetector) Write(epoch.Tid, trace.Var)    {}
func (noopDetector) Acquire(epoch.Tid, trace.Lock) {}
func (noopDetector) Release(epoch.Tid, trace.Lock) {}
func (noopDetector) Fork(epoch.Tid, epoch.Tid)     {}
func (noopDetector) Join(epoch.Tid, epoch.Tid)     {}
func (noopDetector) Name() string                  { return "none" }
func (noopDetector) Reports() []core.Report        { return nil }
func (noopDetector) RuleCounts() [spec.NumRules]uint64 {
	return [spec.NumRules]uint64{}
}

// RunSampling measures the sampling sweep: the micro access-cost arm, the
// generated-trace overhead arm, and the conformance-corpus recall arm.
func RunSampling(opts SamplingOptions) (*SamplingTable, error) {
	opts = opts.withDefaults()
	t := &SamplingTable{
		Options:   opts,
		MicroVars: 1 << 16,
		MicroOps:  1 << 21,
	}
	if opts.Quick {
		t.MicroOps = 1 << 18
	}
	t.Rows = make([]SamplingRow, len(opts.Rates))
	for i, rate := range opts.Rates {
		t.Rows[i].Rate = rate
	}

	if err := t.runMicro(); err != nil {
		return nil, err
	}
	if err := t.runOverhead(); err != nil {
		return nil, err
	}
	if err := t.runRecall(); err != nil {
		return nil, err
	}
	return t, nil
}

// timeOnce drives one pass of ops reads over a power-of-two working set
// of vars through d and returns the per-op nanoseconds. The detector
// persists across passes, so after the first every access is
// steady-state: decisions cached, epochs same-epoch.
func (t *SamplingTable) timeOnce(d core.Detector) float64 {
	mask := trace.Var(t.MicroVars - 1)
	start := time.Now()
	for i := 0; i < t.MicroOps; i++ {
		d.Read(0, trace.Var(i)&mask)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(t.MicroOps)
}

// runMicro times every cell — the no-detector baseline, the precise tier
// and one sampled detector per rate — in round-robin order within each
// iteration, keeping each cell's best pass. Interleaving matters on a
// shared machine: a slow window (GC, host steal) hits all cells roughly
// equally instead of skewing whichever cell it lands on, so the
// cross-cell ratios stay meaningful even when absolute times wobble.
func (t *SamplingTable) runMicro() error {
	precise, err := core.New(t.Options.Variant, core.Config{})
	if err != nil {
		return err
	}
	cells := []struct {
		d    core.Detector
		best *float64
	}{
		{noopDetector{}, &t.BaselineNs},
		{precise, &t.PreciseNs},
	}
	for i := range t.Rows {
		pol := &sample.Policy{Rate: t.Rows[i].Rate, Seed: t.Options.Seed}
		d, err := core.NewSampled(t.Options.Variant, core.Config{}, pol)
		if err != nil {
			return err
		}
		cells = append(cells, struct {
			d    core.Detector
			best *float64
		}{d, &t.Rows[i].AccessNs})
	}
	for it := 0; it < t.Options.Warmup+t.Options.Iters; it++ {
		for _, c := range cells {
			ns := t.timeOnce(c.d)
			if it >= t.Options.Warmup && (*c.best == 0 || ns < *c.best) {
				*c.best = ns
			}
		}
	}
	return nil
}

// samplingGenConfig is the overhead arm's workload: a deterministic
// generated trace wide enough (many variables, few accesses each) that
// per-variable sampling actually thins the work.
func samplingGenConfig(quick bool) trace.GenConfig {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 1_000_000
	if quick {
		cfg.Ops = 200_000
	}
	cfg.Threads = 8
	cfg.Vars = 1 << 15
	cfg.Locks = 64
	return cfg
}

// runOverhead times full offline checks of the generated trace
// (CheckTrace: validation, lowering, the front stage's filter, the
// detector), one cell per rate plus the precise tier, in round-robin
// order within each iteration (the same interleaving rationale as
// runMicro: slow windows on a shared machine should hit every cell, not
// skew one). A final untimed check per rate under a metrics registry
// supplies the row's accounting.
func (t *SamplingTable) runOverhead() error {
	tr := trace.Generate(rand.New(rand.NewSource(7)), samplingGenConfig(t.Options.Quick))
	t.TraceOps = len(tr)

	opts := make([][]verifiedft.CheckOption, 1+len(t.Rows)) // opts[0] = precise
	for c := range opts {
		opts[c] = []verifiedft.CheckOption{verifiedft.WithVariant(t.Options.Variant)}
		if c > 0 {
			opts[c] = append(opts[c], verifiedft.WithSampling(t.Rows[c-1].Rate,
				verifiedft.WithSamplingSeed(t.Options.Seed)))
		}
	}
	bests := make([]float64, len(opts))
	for it := 0; it < t.Options.Warmup+t.Options.Iters; it++ {
		for c := range opts {
			start := time.Now()
			if _, err := verifiedft.CheckTrace(tr, opts[c]...); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			if it >= t.Options.Warmup && (bests[c] == 0 || secs < bests[c]) {
				bests[c] = secs
			}
		}
	}

	t.PreciseCheckSeconds = bests[0]
	for i := range t.Rows {
		row := &t.Rows[i]
		row.CheckSeconds = bests[i+1]
		row.NsPerOp = bests[i+1] * 1e9 / float64(len(tr))
		m := verifiedft.NewMetrics()
		reports, err := verifiedft.CheckTrace(tr, append(opts[i+1], verifiedft.WithMetrics(m))...)
		if err != nil {
			return err
		}
		row.Reports = len(reports)
		snap, key := m.Snapshot(), t.Options.Variant+"."
		row.SuppressedAccesses = snap.Counters[key+"sampling.suppressed_reads"] + snap.Counters[key+"sampling.suppressed_writes"]
		row.SampledVars = snap.Gauges[key+"sampling.vars.sampled"]
		row.SuppressedVars = snap.Gauges[key+"sampling.vars.suppressed"]
		row.ShadowBytes = snap.Gauges[key+"shadow.bytes"]
	}
	return nil
}

// recallSeeds is how many sampling seeds the recall arm averages over.
// Decisions are per-variable and the corpus reuses a handful of small
// variable ids, so a single seed would make recall all-or-nothing; the
// average over seeds estimates the per-deployment expectation (teams
// rotate the seed per rollout precisely to get this averaging in time).
const recallSeeds = 10

// runRecall replays the conformance corpus under two controlled schedules
// per program and scores each rate against the precise tier: recall over
// distinct racy variables (averaged over recallSeeds sampling seeds), the
// filtered-identity soundness gate at every rate and seed, and full
// report identity at rate 1.0.
func (t *SamplingTable) runRecall() error {
	for i := range t.Rows {
		t.Rows[i].SoundSubset = true
		t.Rows[i].Identical = true
	}
	for _, prog := range conformance.Programs() {
		for _, seed := range []uint64{1, 42} {
			tr, _, err := conformance.RunOne(prog, "pct", seed, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", prog.Name, seed, err)
			}
			precise, err := verifiedft.CheckTrace(tr, verifiedft.WithVariant(t.Options.Variant))
			if err != nil {
				return fmt.Errorf("%s precise: %w", prog.Name, err)
			}
			racy := distinctVars(precise)
			for i := range t.Rows {
				row := &t.Rows[i]
				for s := uint64(0); s < recallSeeds; s++ {
					pol := sample.Policy{Rate: row.Rate, Seed: t.Options.Seed + s}
					got, err := verifiedft.CheckTrace(tr,
						verifiedft.WithVariant(t.Options.Variant),
						verifiedft.WithSampling(row.Rate, verifiedft.WithSamplingSeed(pol.Seed)))
					if err != nil {
						return fmt.Errorf("%s rate %v: %w", prog.Name, row.Rate, err)
					}
					row.RacyTotal += len(racy)
					for _, x := range racy {
						if pol.Sampled(x) {
							row.RacyFound++
						}
					}
					if !equalReports(got, filterReports(precise, pol)) {
						row.SoundSubset = false
					}
					if row.Rate == 1 && !equalReports(got, precise) {
						row.Identical = false
					}
				}
			}
		}
	}
	for i := range t.Rows {
		row := &t.Rows[i]
		if row.RacyTotal > 0 {
			row.Recall = float64(row.RacyFound) / float64(row.RacyTotal)
		}
	}
	return nil
}

// equalReports compares report lists, treating "no reports" uniformly —
// a run that found nothing may surface as nil or an empty slice
// depending on the path that produced it, and the distinction carries no
// information.
func equalReports(a, b []core.Report) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// distinctVars lists a report set's racy variables, each once, in first-
// report order.
func distinctVars(reports []core.Report) []trace.Var {
	seen := map[trace.Var]bool{}
	var out []trace.Var
	for _, r := range reports {
		if !seen[r.X] {
			seen[r.X] = true
			out = append(out, r.X)
		}
	}
	return out
}

// filterReports is the restriction the tier promises to implement:
// precise reports on sampled variables, re-numbered from zero. An empty
// filtered set is nil, matching what a detector that saw no race returns.
func filterReports(precise []core.Report, pol sample.Policy) []core.Report {
	var out []core.Report
	for _, r := range precise {
		if pol.Sampled(r.X) {
			r.Seq = len(out)
			out = append(out, r)
		}
	}
	return out
}

// Divergent reports a soundness failure: a rate-1.0 run that was not
// report-identical to the precise tier, or any rate whose reports were
// not exactly the precise reports restricted to its sampled variables.
// Timing is never part of this gate — it flags correctness only.
func (t *SamplingTable) Divergent() bool {
	for _, row := range t.Rows {
		if !row.SoundSubset || (row.Rate == 1 && !row.Identical) {
			return true
		}
	}
	return false
}

// MonotoneNsPerOp reports whether the overhead arm's per-op check cost is
// non-increasing as the rate drops — the shape the tier exists to buy.
func (t *SamplingTable) MonotoneNsPerOp() bool {
	for i := 1; i < len(t.Rows); i++ {
		if t.Rows[i].NsPerOp > t.Rows[i-1].NsPerOp {
			return false
		}
	}
	return true
}

// Format renders the sweep as a text table.
func (t *SamplingTable) Format(w io.Writer) error {
	fmt.Fprintf(w, "micro (%d ops over %d vars): baseline %.2f ns/op, precise %s %.2f ns/op\n",
		t.MicroOps, t.MicroVars, t.BaselineNs, t.Options.Variant, t.PreciseNs)
	fmt.Fprintf(w, "trace (%d ops): precise check %.1f ms\n\n",
		t.TraceOps, t.PreciseCheckSeconds*1000)
	fmt.Fprintf(w, "%10s %12s %12s %12s %10s %10s %8s %s\n",
		"rate", "access ns", "check ms", "check ns/op", "shadow B", "suppressed", "recall", "gates")
	for _, row := range t.Rows {
		gates := "sound"
		if !row.SoundSubset {
			gates = "UNSOUND"
		}
		if row.Rate == 1 {
			if row.Identical {
				gates += "+identical"
			} else {
				gates += "+DIVERGED"
			}
		}
		fmt.Fprintf(w, "%10g %12.2f %12.1f %12.1f %10d %10d %8.3f %s\n",
			row.Rate, row.AccessNs, row.CheckSeconds*1000, row.NsPerOp,
			row.ShadowBytes, row.SuppressedAccesses, row.Recall, gates)
	}
	if t.BaselineNs > 0 {
		last := t.Rows[len(t.Rows)-1]
		fmt.Fprintf(w, "\nlowest-rate access cost is %.2fx the no-detector baseline\n",
			last.AccessNs/t.BaselineNs)
	}
	if !t.MonotoneNsPerOp() {
		fmt.Fprintln(w, "warning: check ns/op did not decrease monotonically with the rate")
	}
	return nil
}

// jsonSamplingTable is the stable machine-readable shape of
// BENCH_sampling.json.
type jsonSamplingTable struct {
	Provenance          Provenance        `json:"provenance"`
	Variant             string            `json:"variant"`
	Seed                uint64            `json:"seed"`
	Iters               int               `json:"iters"`
	Warmup              int               `json:"warmup"`
	Quick               bool              `json:"quick"`
	MicroOps            int               `json:"micro_ops"`
	MicroVars           int               `json:"micro_vars"`
	BaselineNs          float64           `json:"baseline_ns_per_op"`
	PreciseNs           float64           `json:"precise_ns_per_op"`
	TraceOps            int               `json:"trace_ops"`
	PreciseCheckSeconds float64           `json:"precise_check_seconds"`
	MonotoneNsPerOp     bool              `json:"monotone_check_ns_per_op"`
	Rows                []jsonSamplingRow `json:"rows"`
}

type jsonSamplingRow struct {
	Rate               float64 `json:"rate"`
	AccessNs           float64 `json:"access_ns_per_op"`
	CheckSeconds       float64 `json:"check_seconds"`
	NsPerOp            float64 `json:"check_ns_per_op"`
	Reports            int     `json:"reports"`
	ShadowBytes        uint64  `json:"shadow_bytes"`
	SampledVars        uint64  `json:"sampled_vars"`
	SuppressedVars     uint64  `json:"suppressed_vars"`
	SuppressedAccesses uint64  `json:"suppressed_accesses"`
	RacyFound          int     `json:"racy_vars_found"`
	RacyTotal          int     `json:"racy_vars_total"`
	Recall             float64 `json:"recall"`
	Identical          bool    `json:"identical_to_precise"`
	SoundSubset        bool    `json:"sound_subset"`
}

// WriteJSON renders the table as indented JSON.
func (t *SamplingTable) WriteJSON(w io.Writer) error {
	out := jsonSamplingTable{
		Provenance:          CollectProvenance(),
		Variant:             t.Options.Variant,
		Seed:                t.Options.Seed,
		Iters:               t.Options.Iters,
		Warmup:              t.Options.Warmup,
		Quick:               t.Options.Quick,
		MicroOps:            t.MicroOps,
		MicroVars:           t.MicroVars,
		BaselineNs:          t.BaselineNs,
		PreciseNs:           t.PreciseNs,
		TraceOps:            t.TraceOps,
		PreciseCheckSeconds: t.PreciseCheckSeconds,
		MonotoneNsPerOp:     t.MonotoneNsPerOp(),
	}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, jsonSamplingRow{
			Rate:               r.Rate,
			AccessNs:           r.AccessNs,
			CheckSeconds:       r.CheckSeconds,
			NsPerOp:            r.NsPerOp,
			Reports:            r.Reports,
			ShadowBytes:        r.ShadowBytes,
			SampledVars:        r.SampledVars,
			SuppressedVars:     r.SuppressedVars,
			SuppressedAccesses: r.SuppressedAccesses,
			RacyFound:          r.RacyFound,
			RacyTotal:          r.RacyTotal,
			Recall:             r.Recall,
			Identical:          r.Identical,
			SoundSubset:        r.SoundSubset,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
