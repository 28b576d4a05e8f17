// Package harness regenerates the paper's experimental results, foremost
// Table 1: base running time per program plus checking overhead for each
// detector variant, with the geometric mean across the suite.
//
// The methodology follows §8: each program's workload is run several times
// as warm-up and then measured over repeated iterations; overhead is
// (CheckerTime − BaseTime) / BaseTime. The base configuration executes the
// identical target code with no detector attached (rtsim.New(nil)).
// Absolute times are Go-on-this-machine numbers, not the paper's JVM/
// Opteron numbers; the claims under test are the relative ones — which
// variant wins where, and by roughly what factor.
package harness

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rtsim"
	"repro/internal/workloads"
)

// Options configures a measurement run.
type Options struct {
	// Warmup and Iters are the warm-up and measured iteration counts; the
	// paper uses a warm-up phase and 10 measured iterations.
	Warmup int
	Iters  int
	// Detectors lists the variants to measure, in column order.
	Detectors []string
	// Quick selects the small test sizes instead of the bench sizes.
	Quick bool
	// Programs restricts the run to the named programs (nil = whole suite).
	Programs []string
	// Registry, when non-nil, accrues each cell's metric snapshot as a
	// frozen source named "<program>.<detector>" plus a live progress
	// gauge, so an HTTP endpoint can serve results while the bench runs.
	Registry *obs.Registry
}

// DefaultOptions mirrors the paper's setup at repo scale.
func DefaultOptions() Options {
	return Options{
		Warmup:    2,
		Iters:     5,
		Detectors: core.Variants(),
	}
}

// Row is one program's line in the table.
type Row struct {
	Program string
	Suite   string
	// BaseTime is the mean uninstrumented time per iteration.
	BaseTime time.Duration
	// Overhead maps detector name to (checked − base) / base.
	Overhead map[string]float64
	// Reports maps detector name to race-report count (expected 0 on the
	// suite; surfaced so a regression is visible in the table).
	Reports map[string]int
	// FastPath maps detector name to the measured fraction of accesses the
	// detector handled on its lock-free fast paths — the §5/§8 quantity the
	// whole v2 design banks on. Measured in a separate untimed pass.
	FastPath map[string]float64
	// Metrics maps detector name to the full metric snapshot of that pass:
	// detector.* (rule firings, fast/slow splits, shadow occupancy),
	// rtsim.events.* (instrumentation density) and latency.* (sampled
	// handler latencies, power-of-two nanosecond buckets).
	Metrics map[string]obs.Snapshot
}

// Table is the full result.
type Table struct {
	Options Options
	Rows    []Row
	// GeoMean maps detector name to the geometric mean of its overheads,
	// the summary line of Table 1. Non-positive overheads are clamped to
	// a small epsilon for the mean, as a 0.01x program (series) otherwise
	// dominates it.
	GeoMean map[string]float64
}

// Run measures the suite.
func Run(opts Options) (*Table, error) {
	progs := workloads.All()
	if opts.Programs != nil {
		progs = progs[:0:0]
		for _, name := range opts.Programs {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			progs = append(progs, w)
		}
	}
	table := &Table{Options: opts, GeoMean: map[string]float64{}}
	for _, w := range progs {
		row, err := measureProgram(w, opts)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, row)
	}
	for _, det := range opts.Detectors {
		table.GeoMean[det] = geoMean(table.Rows, det)
	}
	return table, nil
}

func measureProgram(w workloads.Workload, opts Options) (Row, error) {
	size := w.BenchSize
	if opts.Quick {
		size = w.TestSize
	}
	base := timeRuns(func() *rtsim.Runtime { return rtsim.New(nil) }, w, size, opts)

	row := Row{
		Program:  w.Name,
		Suite:    w.Suite,
		BaseTime: base,
		Overhead: map[string]float64{},
		Reports:  map[string]int{},
		FastPath: map[string]float64{},
		Metrics:  map[string]obs.Snapshot{},
	}
	for _, det := range opts.Detectors {
		var lastReports int
		mk := func() *rtsim.Runtime {
			return rtsim.New(buildDetector(det))
		}
		var checked time.Duration
		// pprof labels tag the timed samples so a CPU profile scraped from
		// the -metrics-addr endpoint attributes cost per (program, detector)
		// cell rather than lumping everything under measureProgram.
		pprof.Do(context.Background(), pprof.Labels("program", w.Name, "detector", det), func(context.Context) {
			checked = timeRunsReporting(mk, w, size, opts, &lastReports)
		})
		row.Overhead[det] = float64(checked-base) / float64(base)
		row.Reports[det] = lastReports

		snap := metricsPass(w, size, det)
		row.Metrics[det] = snap
		row.FastPath[det] = FastPathShare(snap)
		if opts.Registry != nil {
			opts.Registry.RegisterSource(w.Name+"."+det, snap.Source())
			opts.Registry.Gauge("bench.cells_done").Add(1)
		}
	}
	return row, nil
}

// metricsPass runs one extra, untimed, fully instrumented execution of the
// workload under the detector and returns the resulting snapshot: the
// detector's own counters (frozen at quiescence under "detector."), rtsim
// event counts and sampled handler latencies. Keeping instrumentation out
// of the timed loops is what lets the overhead columns and the metrics
// coexist — a latency sample costs more than a v2 pure block.
func metricsPass(w workloads.Workload, size int, det string) obs.Snapshot {
	reg := obs.NewRegistry()
	d := buildDetector(det)
	wrapped := core.InstrumentLatency(d, reg)
	rt := rtsim.New(wrapped, rtsim.WithMetrics(reg))
	w.Run(rt, size)

	if ss, ok := d.(core.StatsSource); ok {
		// The run has quiesced (w.Run joins its threads), so the per-thread
		// counters are coherent; freeze them as a source.
		reg.RegisterSource("detector", ss.Stats().Source())
	}
	return reg.Snapshot()
}

// FastPathShare extracts the fraction of accesses a detector handled on its
// lock-free fast paths from a metrics-pass snapshot. Returns 0 when the
// snapshot has no detector access counters.
func FastPathShare(s obs.Snapshot) float64 {
	fast := s.Counters["detector.reads.fast"] + s.Counters["detector.writes.fast"]
	total := s.Counters["detector.reads.total"] + s.Counters["detector.writes.total"]
	if total == 0 {
		return 0
	}
	return float64(fast) / float64(total)
}

// buildDetector resolves a detector column name.
func buildDetector(name string) core.Detector {
	d, err := core.New(name, core.Config{})
	if err != nil {
		panic(err)
	}
	return d
}

// timeRuns measures mean time per iteration. Each iteration gets a fresh
// Runtime (fresh target data structures and shadow state, as each workload
// run inside RoadRunner's harness allocates fresh objects).
func timeRuns(mk func() *rtsim.Runtime, w workloads.Workload, size int, opts Options) time.Duration {
	var sink int
	return timeRunsReporting(mk, w, size, opts, &sink)
}

func timeRunsReporting(mk func() *rtsim.Runtime, w workloads.Workload, size int, opts Options, reports *int) time.Duration {
	for i := 0; i < opts.Warmup; i++ {
		w.Run(mk(), size)
	}
	var elapsed time.Duration
	var nReports int
	for i := 0; i < opts.Iters; i++ {
		// Construction happens outside the timed region: the paper's
		// detectors are built once per JVM, not once per workload
		// iteration, so charging table allocation to small programs
		// would distort their overheads.
		rt := mk()
		start := time.Now()
		w.Run(rt, size)
		elapsed += time.Since(start)
		nReports += len(rt.Reports())
	}
	*reports = nReports
	return elapsed / time.Duration(opts.Iters)
}

// geoMean computes the geometric mean of a detector's overheads across
// rows, clamping at a floor so near-zero-overhead programs (series) do not
// drive the mean to zero — the paper reports series at 0.01x and still
// quotes an 8.x geo-mean, implying a comparable treatment.
func geoMean(rows []Row, det string) float64 {
	const floor = 0.01
	var logSum float64
	n := 0
	for _, r := range rows {
		ov := r.Overhead[det]
		if ov < floor {
			ov = floor
		}
		logSum += math.Log(ov)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Ablation experiments (E5/E6): microbenchmarks isolating the two analysis
// rule changes of §3.

// AblationResult reports one microbenchmark comparison.
type AblationResult struct {
	Name        string
	Description string
	// TimeA and TimeB are the per-iteration times of the two arms.
	ArmA, ArmB string
	TimeA      time.Duration
	TimeB      time.Duration
}

// Speedup returns TimeB/TimeA (how much slower arm B is).
func (r AblationResult) Speedup() float64 {
	return float64(r.TimeB) / float64(r.TimeA)
}

func (r AblationResult) String() string {
	return fmt.Sprintf("%s: %s %v vs %s %v (%.2fx)",
		r.Name, r.ArmA, r.TimeA, r.ArmB, r.TimeB, r.Speedup())
}
