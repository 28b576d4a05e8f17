// Package parcheck is the offline check path: every check of a recorded
// trace — vft-race, vft-go, each vft-server upload, the library's
// CheckTrace/CheckSource/CheckReader — is assembled here, once (see run).
//
// CheckSource takes the stream a batch at a time and runs one switch per
// operation that validates it (trace.Validator), lowers it if it is a
// Go-sync or §7 kind (trace.Lowerer; the six core kinds pass) and hands it
// to the front stage (sampling on raw variable ids, then first-touch
// compaction of thread, variable and lock ids; see frontStage), which
// calls the matching handler of an empty detector for what it admits, all
// on the calling goroutine; Check does the same for a stream already
// validated and lowered. For vft-v2 —
// the default, and what every product path runs — the detector is this
// package's machine: core.V2's state and rules without the
// synchronization that only concurrent callers need (see machine). The
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
	"repro/internal/epoch"
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
// renumbering run in one switch per operation (see feed.check), over
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
		v := trace.NewValidator()
		v.Ext = ext
		v.MaxTid = core.MaxTid(opts.Variant)
		fd := &feed{v: v, low: trace.NewParityLowerer(ext), front: &st.front}
		if c := core.MaxClock(opts.Variant); c < epoch.MaxClock {
			fd.maxClock = c
		}
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
				st.front.origT = append(st.front.origT, v.Threads()...)
				ops = v.Count()
				return nil
			}
			if err != nil {
				return err
			}
			if spent {
				return &trace.TooLongError{Limit: opts.MaxOps}
			}
			if err := fd.check(buf[:n]); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return reports, ops, nil
}

// feed is CheckSource's per-operation work.
type feed struct {
	v     *trace.Validator
	low   *trace.Lowerer
	front *frontStage
	pairs []trace.Pair // the lowering's output, reused

	// maxClock is the variant's clock ceiling where it is below
	// epoch.MaxClock (ft-cas's), and 0 where there is none to police;
	// ticks[o] then counts the increments of the clock of the thread with
	// ordinal o, which starts at 1.
	maxClock uint64
	ticks    []uint64
}

// check validates, lowers and renumbers ops in order, handing each to the
// detector, and on the first infeasible one returns the validator's error
// (or the clock ceiling's). The core kinds pass the
// Lowerer by (only a real lock's id changes), so only the extended kinds
// reach it.
func (fd *feed) check(ops []trace.Op) error {
	v, front := fd.v, fd.front
	for i := range ops {
		op := ops[i]
		var err error
		switch op.Kind {
		case trace.Read:
			if err = v.Access(op); err == nil {
				front.read(v.Ordinal(op.T), op.X)
			}
		case trace.Write:
			if err = v.Access(op); err == nil {
				front.write(v.Ordinal(op.T), op.X)
			}
		case trace.Acquire:
			if err = v.Acquire(op); err == nil {
				front.acquire(v.Ordinal(op.T), fd.low.Real(op.M))
			}
		case trace.Release:
			if err = v.Release(op); err == nil && fd.maxClock != 0 {
				err = fd.tick(op, op.T)
			}
			if err == nil {
				front.release(v.Ordinal(op.T), fd.low.Real(op.M))
			}
		case trace.Fork:
			if err = v.Fork(op); err == nil && fd.maxClock != 0 {
				err = fd.tick(op, op.T)
			}
			if err == nil {
				front.fork(v.Ordinal(op.T), v.Ordinal(op.U))
			}
		case trace.Join:
			// Under the FT join rule, ft-cas's, a join ticks the joined
			// thread's clock.
			if err = v.Join(op); err == nil && fd.maxClock != 0 {
				err = fd.tick(op, op.U)
			}
			if err == nil {
				front.join(v.Ordinal(op.T), v.Ordinal(op.U))
			}
		case trace.ChanSend, trace.ChanRecv, trace.ChanClose:
			var step trace.ChanStep
			if step, err = v.Chan(op); err == nil {
				fd.pairs = fd.low.AppendChan(fd.pairs[:0], op, step)
				err = fd.lowered(op)
			}
		default:
			if err = v.Check(op); err == nil {
				fd.pairs = fd.low.AppendSync(fd.pairs[:0], op)
				err = fd.lowered(op)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// lowered hands on the acquire+release pairs op lowered to.
func (fd *feed) lowered(op trace.Op) error {
	for _, p := range fd.pairs {
		if fd.maxClock != 0 {
			if err := fd.tick(op, p.T); err != nil {
				return err
			}
		}
		t := fd.v.Ordinal(p.T)
		fd.front.acquire(t, p.M)
		fd.front.release(t, p.M)
	}
	return nil
}

// tick counts one increment of thread t's clock for op, which the
// validator has just admitted, or fails op if the increment would take the
// clock past maxClock.
func (fd *feed) tick(op trace.Op, t epoch.Tid) error {
	o := int(fd.v.Ordinal(t))
	for o >= len(fd.ticks) {
		fd.ticks = append(fd.ticks, 0)
	}
	if 1+fd.ticks[o] == fd.maxClock {
		return &trace.ClockRangeError{Index: fd.v.Count() - 1, Op: op, Tid: t, Max: fd.maxClock}
	}
	fd.ticks[o]++
	return nil
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
			st.front.push(op)
		}
	})
}

// checkState is one check's working state: the vft-v2 machine, the front
// stage and the batch buffer. Between checks it waits in states, so a process
// that checks many traces (vft-server: one per upload) reuses grown tables; a
// reset costs what the previous check touched, not what the tables hold.
type checkState struct {
	m     machine
	front frontStage
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
	st.front.reset()
	if opts.Variant == "" {
		opts.Variant = "vft-v2"
	}
	var d core.Detector
	if opts.Variant == "vft-v2" {
		st.m.reset(opts.MaxReportsPerVar)
		d = &st.m
	} else {
		var err error
		if d, err = core.New(opts.Variant, core.Config{MaxReportsPerVar: opts.MaxReportsPerVar}); err != nil {
			return nil, err
		}
	}
	front := &st.front
	front.sampler, front.det = opts.Sampling, d
	if err := drive(st); err != nil {
		return nil, err
	}
	if opts.StatsSink != nil {
		// The stream has ended, so the detector is quiescent and its
		// per-thread counters are coherent.
		snap := d.(core.StatsSource).Stats()
		front.addStats(snap)
		opts.StatsSink(snap)
	}
	return front.restore(d.Reports()), nil
}
