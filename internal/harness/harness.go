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
	// whole v2 design banks on.
	FastPath map[string]float64
	// Metrics maps detector name to the detector's own counters (rule
	// firings, fast/slow splits, shadow occupancy) under "detector.", read
	// from the last timed iteration once its clock has stopped.
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
	base, _, _ := timeRuns(func() *rtsim.Runtime { return rtsim.New(nil) }, w, size, opts)

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
		mk := func() *rtsim.Runtime {
			return rtsim.New(buildDetector(det))
		}
		var checked time.Duration
		var last *rtsim.Runtime
		var reports int
		// pprof labels tag the timed samples so a CPU profile scraped from
		// the -metrics-addr endpoint attributes cost per (program, detector)
		// cell rather than lumping everything under measureProgram.
		pprof.Do(context.Background(), pprof.Labels("program", w.Name, "detector", det), func(context.Context) {
			checked, last, reports = timeRuns(mk, w, size, opts)
		})
		row.Overhead[det] = float64(checked-base) / float64(base)
		row.Reports[det] = reports

		// The last iteration's run has quiesced (w.Run joins its threads),
		// so its detector's per-thread counters are coherent.
		reg := obs.NewRegistry()
		reg.RegisterSource("detector", last.Detector().(core.StatsSource).Stats().Source())
		snap := reg.Snapshot()
		row.Metrics[det] = snap
		row.FastPath[det] = FastPathShare(snap)
		if opts.Registry != nil {
			opts.Registry.RegisterSource(w.Name+"."+det, snap.Source())
			opts.Registry.Gauge("bench.cells_done").Add(1)
		}
	}
	return row, nil
}

// FastPathShare extracts the fraction of accesses a detector handled on its
// lock-free fast paths from a Row.Metrics snapshot. Returns 0 when the
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
// run inside RoadRunner's harness allocates fresh objects). It also returns
// the last iteration's Runtime and the reports of all measured iterations.
func timeRuns(mk func() *rtsim.Runtime, w workloads.Workload, size int, opts Options) (time.Duration, *rtsim.Runtime, int) {
	for i := 0; i < opts.Warmup; i++ {
		w.Run(mk(), size)
	}
	var elapsed time.Duration
	var rt *rtsim.Runtime
	var nReports int
	for i := 0; i < opts.Iters; i++ {
		// Construction happens outside the timed region: the paper's
		// detectors are built once per JVM, not once per workload
		// iteration, so charging table allocation to small programs
		// would distort their overheads.
		rt = mk()
		start := time.Now()
		w.Run(rt, size)
		elapsed += time.Since(start)
		nReports += len(rt.Reports())
	}
	return elapsed / time.Duration(opts.Iters), rt, nReports
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
