// Package parcheck is the offline check path: every check of a recorded
// trace — vft-race, vft-go, each vft-server upload, the library's
// CheckTrace/CheckSource/CheckReader — is assembled here, once (see run).
//
// A push feed (validation and lowering inline, or an already-lowered
// source) hands one operation at a time to the front stage (sampling on
// raw variable ids, then first-touch compaction of thread, variable and
// lock ids; see frontStage), which calls the matching handler of a fresh
// detector for what it admits, all on the calling goroutine. For vft-v2 —
// the default, and what every product path runs — the detector is this
// package's machine: core.V2's state and rules without the
// synchronization that only concurrent callers need (see machine). The
// other six variants are core's own detectors. The reports are the
// detector's, mapped back onto the trace's ids.
//
// There is no parallel checker behind the name (EXPERIMENTS.md E17 has the
// verdict on the one there was): the package name and Options.Workers are
// kept only because the frozen benchmark imports them; rename and delete
// with the next `benchmark` PR.
package parcheck

import (
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// Options configures a check.
type Options struct {
	// Variant is the detector variant to run (default vft-v2).
	Variant string
	// Workers is accepted and ignored: there is one engine. Caller:
	// bench/offline.go (frozen with the benchmark); delete with the next
	// `benchmark` PR.
	Workers int
	// MaxReportsPerVar caps race reports per variable (0 = unlimited),
	// with the semantics of core's report sink.
	MaxReportsPerVar int
	// Threads, Vars and Locks are table size hints: how many distinct
	// threads, variables and lowered locks to expect (the tables grow on
	// demand). They are counts, not id bounds — the detector sees compact
	// ids. For the other six variants a hint's worth of table is populated
	// up front and counted in shadow.threads/vars/locks/bytes; the vft-v2
	// machine only reserves capacity, so there those gauges count the
	// entries the trace touched.
	Threads, Vars, Locks int
	// Metrics, when non-nil, observes the check the way it observes an
	// online detector: sampled latency.* histograms while the check runs,
	// and afterwards the detector's counters frozen under the variant name
	// (plus ops.* and, when sampling, sampling.*). It does not choose the
	// detector: a vft-v2 check is the machine with or without it, and the
	// machine's counters carry core.V2's names.
	Metrics *obs.Registry
	// StatsSink, when non-nil, is called once with the same snapshot a
	// Metrics registry would receive. Unlike Metrics — which registers a
	// new frozen source per run and therefore suits one-shot tools — a
	// sink lets a long-running caller (the ingestion service, which checks
	// thousands of uploads per registry lifetime) fold each run's stats
	// into its own accumulators without growing the registry per check.
	StatsSink func(obs.Snapshot)
	// Sampling, when non-nil, enables the per-variable sampling tier:
	// accesses to variables the policy rejects are dropped by the front
	// stage (counted in the stats as sampling.suppressed_*) before they
	// reach the detector. The policy is a pure function of (seed, raw
	// variable id), so every run of one trace drops exactly the same
	// accesses; see internal/sample for the soundness argument.
	Sampling *sample.Policy
}

// CheckSource checks a raw (not yet validated or lowered) stream: the §2
// feasibility validation, under the variant's thread-id ceiling, and the
// extended-op lowering run inline in the loop that pulls src, each lowered
// operation going straight into the check — no stage in between holds a
// queue or costs a virtual Next() hop per operation. ext has
// DesugarSource's meaning (barrier participant counts, channel capacities;
// nil for all defaults), and the lowering is the shared trace.Lowerer in
// its parity numbering, so it matches DesugarSource operation for
// operation. The first infeasible op ends the check with the validator's
// positioned error; on any error all reports are discarded.
func CheckSource(src trace.Source, ext *trace.Extensions, opts Options) ([]core.Report, error) {
	return run(opts, func(emit func(trace.Op)) error {
		v := trace.NewValidator()
		v.Ext = ext
		v.MaxTid = core.MaxTid(opts.Variant)
		low := trace.NewParityLowerer(ext)
		for {
			op, err := src.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := v.Check(op); err != nil {
				return err
			}
			low.Lower(op, emit)
		}
	})
}

// CheckTrace is CheckSource over a materialized trace.
func CheckTrace(tr trace.Trace, ext *trace.Extensions, opts Options) ([]core.Report, error) {
	return CheckSource(tr.Source(), ext, opts)
}

// Check is CheckSource for a stream that is already validated and lowered
// to the core language (an extended op in it is an error).
func Check(src trace.Source, opts Options) ([]core.Report, error) {
	return run(opts, func(emit func(trace.Op)) error { return stream(src, emit) })
}

// run assembles a check: feed pushes the validated, lowered stream, one
// operation at a time in the calling goroutine, into the front stage,
// which calls the handlers of a fresh detector — the unsynchronized
// machine for vft-v2, core's own detector for the other six. Either may
// size flat tables from the hints and index them directly because the
// front stage has made every id compact.
func run(opts Options, feed func(emit func(trace.Op)) error) ([]core.Report, error) {
	if opts.Variant == "" {
		opts.Variant = "vft-v2"
	}
	cfg := core.Config{
		Threads: opts.Threads, Locks: opts.Locks,
		Vars:             core.SampledVars(opts.Sampling, opts.Vars), // only sampled variables reach a table
		MaxReportsPerVar: opts.MaxReportsPerVar,
	}
	var d core.Detector
	if opts.Variant == "vft-v2" {
		d = newMachine(cfg)
	} else {
		var err error
		if d, err = core.New(opts.Variant, cfg); err != nil {
			return nil, err
		}
	}
	front := &frontStage{sampler: opts.Sampling, det: d}
	if opts.Metrics != nil {
		front.det = core.InstrumentLatency(d, opts.Metrics, core.LatencySampleInterval)
	}
	if err := feed(front.push); err != nil {
		return nil, err
	}
	if opts.Metrics != nil || opts.StatsSink != nil {
		// The feed has returned, so the detector is quiescent and its
		// per-thread counters are coherent.
		snap := d.(core.StatsSource).Stats()
		front.addStats(snap)
		if opts.Metrics != nil {
			opts.Metrics.RegisterSource(opts.Variant, snap.Source())
		}
		if opts.StatsSink != nil {
			opts.StatsSink(snap)
		}
	}
	return front.restore(d.Reports()), nil
}

// stream pulls an already validated and lowered stream to EOF (or error).
func stream(src trace.Source, emit func(trace.Op)) error {
	for idx := 0; ; idx++ {
		op, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !op.Kind.IsCore() {
			return &trace.InfeasibleError{Index: idx, Op: op, Msg: "extended op reached parcheck (desugar first)"}
		}
		emit(op)
	}
}
