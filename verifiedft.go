// Package verifiedft is a Go implementation of VerifiedFT (Wilcox,
// Flanagan, Freund — PPoPP 2018): a precise dynamic data-race detector in
// the FastTrack family whose core algorithm is simple enough to verify,
// with lock-free fast paths for the three most common analysis cases.
//
// The package offers two levels of API.
//
// # Trace checking
//
// Build or parse a trace in the §2 trace language and check it:
//
//	tr := verifiedft.Trace{
//		verifiedft.Fork(0, 1),
//		verifiedft.Write(0, 0),
//		verifiedft.Write(1, 0),
//	}
//	reports, err := verifiedft.CheckTrace(tr)
//
// CheckTrace validates feasibility, lowers extended operations (volatiles,
// barriers), replays the trace through a VerifiedFT-v2 detector and returns
// one report per detected race. The analysis is precise: it reports at
// least one race if and only if the trace has two concurrent conflicting
// accesses (Theorem 3.1).
//
// # Online checking
//
// Attach a detector to a running concurrent program through the Runtime,
// which mirrors the RoadRunner execution model (§7): every instrumented
// operation invokes the analysis inline in the acting goroutine.
//
//	d, _ := verifiedft.New(verifiedft.V2)
//	rt := verifiedft.NewRuntime(d)
//	main := rt.Main()
//	x := rt.NewVar()
//	child := main.Go(func(w *verifiedft.Thread) { x.Store(w, 1) })
//	x.Store(main, 2) // races with the child's store
//	main.Join(child)
//	races := rt.Reports()
//
// Five detector variants share the Detector interface: the three
// VerifiedFT stages the paper evaluates (V1, V15, V2) and the two prior
// FastTrack implementations it compares against (FTMutex, FTCAS). All
// five are precise; V2 is the paper's contribution and the right default.
package verifiedft

import (
	"io"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/parcheck"
	"repro/internal/rtsim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Detector variant names accepted by New.
const (
	// V1 is VerifiedFT-v1: every handler fully lock-protected (Fig. 3).
	V1 = "vft-v1"
	// V15 is VerifiedFT-v1.5: lock-free same-epoch cases only.
	V15 = "vft-v1.5"
	// V2 is VerifiedFT-v2, the paper's algorithm (Fig. 4): lock-free
	// [Read Same Epoch], [Write Same Epoch] and [Read Shared Same Epoch].
	V2 = "vft-v2"
	// FTMutex is the prior write-protected/optimistic-retry FastTrack.
	FTMutex = "ft-mutex"
	// FTCAS is the prior CAS-packed FastTrack.
	FTCAS = "ft-cas"
)

// Detector is the six-handler event interface of the idealized
// implementations; see the core package for the handler contracts.
type Detector = core.Detector

// Report describes one detected race.
type Report = core.Report

// Rule identifies a Fig. 2 analysis rule.
type Rule = spec.Rule

// Tid, Var and Lock are the identity types of the trace language.
type (
	// Tid is a thread identifier.
	Tid = epoch.Tid
	// VarID is a variable identifier.
	VarID = trace.Var
	// LockID is a lock identifier.
	LockID = trace.Lock
)

// Op is one operation of the trace language; Trace is a sequence of them.
type (
	// Op is a single trace operation.
	Op = trace.Op
	// Trace is an execution trace.
	Trace = trace.Trace
	// Source is a pull iterator over trace operations (Next returns
	// io.EOF at end of stream) — the streaming counterpart of Trace.
	Source = trace.Source
)

// NewSliceSource adapts a materialized Trace to the Source interface.
var NewSliceSource = trace.NewSliceSource

// NewTraceDecoder returns a Source decoding r incrementally, sniffing the
// encoding: gzip is transparently decompressed, then the binary format is
// recognized by its magic, and anything else reads as the text format. A
// binary stream from a newer writer fails with a typed
// *UnsupportedVersionError rather than a corruption error.
func NewTraceDecoder(r io.Reader) (Source, error) { return trace.NewDecoder(r) }

// EncodeText writes tr in the line-oriented text trace format.
func EncodeText(w io.Writer, tr Trace) error { return trace.Encode(w, tr) }

// EncodeBinary writes tr in the binary trace format, at the newest
// version (BinaryFormatVersion).
func EncodeBinary(w io.Writer, tr Trace) error { return trace.EncodeBinary(w, tr) }

// Trace-operation constructors (§2 syntax, plus the Go-synchronization
// kinds of trace format v2).
var (
	// Read builds rd(t,x).
	Read = trace.Rd
	// Write builds wr(t,x).
	Write = trace.Wr
	// Acquire builds acq(t,m).
	Acquire = trace.Acq
	// Release builds rel(t,m).
	Release = trace.Rel
	// Fork builds fork(t,u).
	Fork = trace.ForkOp
	// Join builds join(t,u).
	Join = trace.JoinOp
	// VolatileRead builds vrd(t,x).
	VolatileRead = trace.VRd
	// VolatileWrite builds vwr(t,x).
	VolatileWrite = trace.VWr
	// BarrierArrive builds barrier(t,b).
	BarrierArrive = trace.BarrierOp
	// ChanSend builds send(t,c), a channel send (see WithChanCapacities
	// for buffered channels; a send without buffer room blocks t until a
	// matching ChanRecv).
	ChanSend = trace.SendOp
	// ChanRecv builds recv(t,c), a channel receive.
	ChanRecv = trace.RecvOp
	// ChanClose builds close(t,c), a channel close.
	ChanClose = trace.CloseOp
	// AtomicLoad builds aload(t,a), a sync/atomic load.
	AtomicLoad = trace.ALoad
	// AtomicStore builds astore(t,a), a sync/atomic store.
	AtomicStore = trace.AStore
	// AtomicRMW builds armw(t,a), a sync/atomic read-modify-write.
	AtomicRMW = trace.ARMW
	// OnceDo builds once(t,o), a sync.Once.Do return.
	OnceDo = trace.OnceOp
)

// UnsupportedVersionError reports a binary trace written by a newer
// format version than this build reads; it is the "upgrade the reader"
// error, as opposed to a corruption error.
type UnsupportedVersionError = trace.UnsupportedVersionError

// BinaryFormatVersion is the newest binary wire-format version this build
// reads, and the one EncodeBinary writes.
const BinaryFormatVersion = trace.MaxBinaryVersion

// Runtime couples a concurrent Go program with a detector (the RoadRunner
// model, §7); Thread, Var, Array, Mutex, Volatile and Barrier are its
// instrumented primitives.
type (
	// Runtime is an instrumented execution environment.
	Runtime = rtsim.Runtime
	// Thread is an instrumented thread identity.
	Thread = rtsim.Thread
	// Var is an instrumented memory location.
	Var = rtsim.Var
	// Array is a block of instrumented memory locations.
	Array = rtsim.Array
	// Mutex is an instrumented lock.
	Mutex = rtsim.Mutex
	// Volatile is an instrumented volatile location.
	Volatile = rtsim.Volatile
	// Barrier is an instrumented cyclic barrier.
	Barrier = rtsim.Barrier
)

// New constructs a detector variant; see the variant constants. Its
// shadow tables start empty and grow with the thread, variable and lock
// ids the program names:
//
//	d, err := verifiedft.New(verifiedft.V2)
//	d, err := verifiedft.New(verifiedft.V2, verifiedft.WithMaxReportsPerVar(1))
func New(variant string, opts ...Option) (Detector, error) {
	s := settings{variant: variant}
	for _, o := range opts {
		o.applyNew(&s)
	}
	if err := s.resolveSampling(); err != nil {
		return nil, err
	}
	return core.NewSampled(s.variant, core.Config{MaxReportsPerVar: s.maxPerVar}, s.sampling)
}

// Variants lists all detector variant names.
func Variants() []string { return core.Variants() }

// NewRuntime returns an instrumented runtime delivering events to d; a nil
// detector gives an uninstrumented baseline runtime.
func NewRuntime(d Detector) *Runtime { return rtsim.New(d) }

// ValidateTrace checks the §2 feasibility constraints.
func ValidateTrace(tr Trace) error { return trace.Validate(tr) }

// CheckSource is the streaming form of CheckTrace: it pulls operations
// from src and pushes each through incremental §2 feasibility validation
// (erroring at the offending op index), on-the-fly lowering of extended
// operations, and the check itself — a fresh detector, VerifiedFT-v2 unless
// WithVariant says otherwise — and returns every detected race once the
// stream ends:
//
//	src, err := verifiedft.NewTraceDecoder(file) // text, binary or gzip
//	reports, err := verifiedft.CheckSource(src,
//		verifiedft.WithVariant(verifiedft.FTCAS),
//		verifiedft.WithMaxReportsPerVar(1))
//
// Every stage holds state proportional to the number of distinct thread,
// variable and lock ids the stream names — never to their magnitude, and
// never to the stream's length — so arbitrarily long traces check in
// bounded memory (pair with WithMaxReportsPerVar on racy streams so the
// report list stays bounded too). Shadow tables start empty and grow with
// the ids the stream names. On a validation or decode error, or at an
// operation that would take a thread's clock past what the variant's epoch
// format holds (only ft-cas's 24-bit clocks are that small), the error is
// returned and any reports from the consumed prefix are discarded, matching
// CheckTrace's contract that an infeasible trace yields no reports. With
// WithMetrics the detector's counters are frozen into the registry under
// the variant name when the stream ends.
//
// CheckSource, CheckReader and CheckTrace are one path: the options map
// onto internal/parcheck's, which assembles the check.
func CheckSource(src Source, opts ...CheckOption) ([]Report, error) {
	s := settings{variant: V2}
	for _, o := range opts {
		o.applyCheck(&s)
	}
	if err := s.resolveSampling(); err != nil {
		return nil, err
	}
	var sink func(obs.Snapshot)
	if m := s.metrics; m != nil {
		sink = func(snap obs.Snapshot) { m.RegisterSource(s.variant, snap.Source()) }
	}
	reports, _, err := parcheck.CheckSource(src, s.extensions(), parcheck.Options{
		Variant:          s.variant,
		MaxReportsPerVar: s.maxPerVar,
		StatsSink:        sink,
		Sampling:         s.sampling,
	})
	return reports, err
}

// CheckReader decodes a trace stream from r — sniffing gzip, the binary
// format and the text format, like the CLI tools — and checks it with
// CheckSource. The stream is never materialized.
func CheckReader(r io.Reader, opts ...CheckOption) ([]Report, error) {
	src, err := trace.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return CheckSource(src, opts...)
}

// CheckTrace validates tr, lowers extended operations, and replays it
// through a fresh detector (VerifiedFT-v2 unless WithVariant says
// otherwise), returning every detected race:
//
//	reports, err := verifiedft.CheckTrace(tr)
//	reports, err := verifiedft.CheckTrace(tr,
//		verifiedft.WithVariant(verifiedft.FTCAS),
//		verifiedft.WithBarrierParties(map[verifiedft.LockID]int{0: 4}),
//		verifiedft.WithMetrics(m))
//
// It is CheckSource on a slice-backed Source, so the materialized and
// streaming paths cannot drift: identical operation sequences produce
// identical reports whichever entry point sees them.
func CheckTrace(tr Trace, opts ...CheckOption) ([]Report, error) {
	return CheckSource(tr.Source(), opts...)
}

// HasRace is the oracle of §2: it decides, directly from the happens-before
// relation, whether the trace contains two concurrent conflicting accesses.
// It is independent of the detector implementation and exists for
// ground-truth comparison.
func HasRace(tr Trace) (bool, error) {
	if err := trace.Validate(tr); err != nil {
		return false, err
	}
	return hb.Analyze(tr.Desugar(nil)).HasRace(), nil
}

// Version identifies this implementation. 2.14.1 makes vft-server's
// drain-time state save replace the previous state file only once the
// new one is written and synced.
const Version = "2.14.1"
