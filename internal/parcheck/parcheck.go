// Package parcheck is the offline check path: every check of a recorded
// trace — vft-race, goinstr.Check, each vft-server upload, the library's
// CheckTrace/CheckSource/CheckReader — is assembled here, once (see run).
//
// CheckSource takes the stream a batch at a time and runs the kernel's one
// switch per operation (kernel.Feed), which validates it
// (trace.Validator), lowers it if it is a Go-sync or §7 kind
// (trace.Lowerer; the six core kinds pass) and hands it to the front stage
// (sampling on raw variable ids, then first-touch compaction of thread,
// variable and lock ids; see kernel.Front), which
// calls the matching handler of an empty detector for what it admits, all
// on the calling goroutine; Check does the same for a stream already
// validated and lowered. For vft-v2 —
// the default, and what every offline path runs — the detector is the
// kernel's machine: core.V2's state and rules without the
// synchronization that only concurrent callers need (see kernel.Machine),
// the same one the vft-go shim runs inside the instrumented program. The
// other four variants are core's own detectors. The reports are the
// detector's, mapped back onto the trace's ids. The machine, the front
// stage and the batch buffer are recycled between checks (see checkState).
//
// There is no parallel checker behind the name (EXPERIMENTS.md E17 has the
// verdict on the one there was): the package name and Options.Workers are
// kept only because the frozen benchmark imports them; rename and delete
// with the next `benchmark` PR.
package parcheck

import (
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel"
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
	// MaxOps is CheckSource's operation budget (0 = none): a stream with
	// more raw operations fails with a *trace.TooLongError, never checked
	// as a silent prefix.
	MaxOps int
	// MaxReportsPerVar caps race reports per variable (0 = unlimited),
	// with the semantics of core's report sink.
	MaxReportsPerVar int
	// StatsSink, when non-nil, is called once, after the stream ends, with
	// the detector's counters (plus ops.* and, when sampling, sampling.*).
	// It does not choose the detector: a vft-v2 check is the machine with
	// or without it, and the machine's counters carry core.V2's names. The
	// library's WithMetrics registers the snapshot under the variant name;
	// the ingestion service, which checks thousands of uploads per
	// registry lifetime, folds it into its own accumulators instead.
	StatsSink func(obs.Snapshot)
	// Sampling, when non-nil, enables the per-variable sampling tier:
	// accesses to variables the policy rejects are dropped by the front
	// stage (counted in the stats as sampling.suppressed_*) before they
	// reach the detector. The policy is a pure function of (seed, raw
	// variable id), so every run of one trace drops exactly the same
	// accesses; see internal/sample for the soundness argument.
	Sampling *sample.Policy
}

// batchSize is how many raw operations CheckSource takes from its source
// at a time: a 10 KiB buffer of 20-byte ops.
const batchSize = 512

// CheckSource checks a raw (not yet validated or lowered) stream: the §2
// feasibility validation, under the variant's thread-id ceiling, the
// extended-op lowering, the variant's clock ceiling and the front stage's
// renumbering run in one switch per operation (kernel.Feed), over
// batches the source delivers (a binary decoder decodes one in place;
// other sources yield one op per batch). ext has DesugarSource's meaning
// (barrier participant counts, channel capacities; nil for all defaults),
// and the lowering is the shared trace.Lowerer in its parity numbering, so
// the detector sees what DesugarSource would hand it, operation for
// operation. It returns the reports and how many raw operations it
// admitted. The first infeasible op ends the check with the validator's
// positioned error, and the first op that would take a thread's clock past
// core.MaxClock with a *trace.ClockRangeError. Under a budget
// (opts.MaxOps = n) the n+1-th operation, once it decodes, ends the check
// with a *trace.TooLongError, feasible or not; an error in the first n,
// or in decoding the n+1-th, is returned as itself. The source's own error
// is returned bare, so a caller can tell it apart by identity. On any
// error all reports are discarded and the count is 0.
func CheckSource(src trace.Source, ext *trace.Extensions, opts Options) ([]core.Report, int, error) {
	var ops int
	reports, err := run(opts, func(st *checkState) error {
		fd := kernel.NewFeed(ext, core.MaxTid(opts.Variant), core.MaxClock(opts.Variant), &st.front, nil)
		v := fd.V
		for {
			// Ask for no more than the budget has left, and with none left
			// for one op: the stream's end or error, or the budget's.
			buf, spent := st.buf[:], false
			if opts.MaxOps > 0 {
				left := opts.MaxOps - v.Count()
				buf, spent = buf[:max(1, min(left, len(buf)))], left == 0
			}
			n, err := trace.NextBatch(src, buf)
			if err == io.EOF {
				st.front.SetThreads(v.Threads())
				ops = v.Count()
				return nil
			}
			if err != nil {
				return err
			}
			if spent {
				return &trace.TooLongError{Limit: opts.MaxOps}
			}
			if err := fd.Check(buf[:n]); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return reports, ops, nil
}

// CheckTrace is CheckSource over a materialized trace.
func CheckTrace(tr trace.Trace, ext *trace.Extensions, opts Options) ([]core.Report, error) {
	reports, _, err := CheckSource(tr.Source(), ext, opts)
	return reports, err
}

// Check is CheckSource for a stream that is already validated and lowered
// to the core language (an extended op in it is an error).
func Check(src trace.Source, opts Options) ([]core.Report, error) {
	return run(opts, func(st *checkState) error {
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
			st.front.Push(op)
		}
	})
}

// checkState is one check's working state: the vft-v2 machine, the front
// stage and the batch buffer. Between checks it waits in states, so a process
// that checks many traces (vft-server: one per upload) reuses grown tables; a
// reset costs what the previous check touched, not what the tables hold.
type checkState struct {
	m     kernel.Machine
	front kernel.Front
	buf   [batchSize]trace.Op
}

var states = &sync.Pool{New: func() any { return new(checkState) }}

// run assembles a check on a recycled state: drive hands the stream, in
// the calling goroutine, to the front stage, which calls the handlers of
// an empty detector — the unsynchronized machine for vft-v2, a new core
// detector for the other four — under the compact ids their flat tables
// are indexed by.
func run(opts Options, drive func(*checkState) error) ([]core.Report, error) {
	st := states.Get().(*checkState)
	reports, err := st.check(opts, drive)
	states.Put(st) // not deferred: a check that panics may leave its state half-updated
	return reports, err
}

func (st *checkState) check(opts Options, drive func(*checkState) error) ([]core.Report, error) {
	st.front.Reset()
	if opts.Variant == "" {
		opts.Variant = "vft-v2"
	}
	var d core.Detector
	if opts.Variant == "vft-v2" {
		st.m.Reset(opts.MaxReportsPerVar)
		d = &st.m
	} else {
		var err error
		if d, err = core.New(opts.Variant, core.Config{MaxReportsPerVar: opts.MaxReportsPerVar}); err != nil {
			return nil, err
		}
	}
	front := &st.front
	front.Det = d
	if opts.Sampling != nil {
		front.Sampler = opts.Sampling
	}
	if err := drive(st); err != nil {
		return nil, err
	}
	if opts.StatsSink != nil {
		// The stream has ended, so the detector is quiescent and its
		// per-thread counters are coherent.
		var snap obs.Snapshot
		if d == &st.m {
			snap = machineStats(&st.m)
		} else {
			snap = d.(core.StatsSource).Stats()
		}
		addFrontStats(snap, front, opts.Sampling)
		opts.StatsSink(snap)
	}
	return front.Restore(d.Reports()), nil
}
