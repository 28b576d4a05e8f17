// Package core implements the paper's contribution: the VerifiedFT
// concurrent race-detector algorithm, in the three stages evaluated in §8
// (VerifiedFT-v1, -v1.5, -v2), together with the prior FastTrack
// implementations it is compared against (FT-Mutex, FT-CAS). Every
// variant is precise: it reports a race exactly when the trace has two
// concurrent conflicting accesses (Theorem 3.1).
//
// Every detector exposes the same six event handlers as the idealized
// implementations of Fig. 3/Fig. 4. Handlers are designed to be called
// inline by the goroutine performing the corresponding program operation
// (the RoadRunner execution model, §7) and therefore run concurrently; each
// detector's synchronization discipline is documented in its file. The
// handlers never stop at the first race — like the Java implementation
// (§7), they record a report, repair the shadow state as if the access had
// been race-free, and keep checking. The first recorded report coincides
// with the Fig. 2 specification's Error transition; the differential tests
// in this package check exactly that.
package core

import (
	"fmt"
	"sync"

	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Detector is the event-handler interface of the idealized implementations:
// one handler per operation of the trace language. Implementations must be
// safe for the RoadRunner concurrency model: Read/Write called by the acting
// thread at any time; Acquire/Release called while the target lock is held;
// Fork called before the child thread runs; Join called after the child has
// terminated.
type Detector interface {
	// Name identifies the variant, e.g. "vft-v2".
	Name() string

	// Read handles rd(t,x).
	Read(t epoch.Tid, x trace.Var)
	// Write handles wr(t,x).
	Write(t epoch.Tid, x trace.Var)
	// Acquire handles acq(t,m); the caller must hold the target lock m.
	Acquire(t epoch.Tid, m trace.Lock)
	// Release handles rel(t,m); the caller must still hold the target
	// lock m.
	Release(t epoch.Tid, m trace.Lock)
	// Fork handles fork(t,u); thread u must not have started yet.
	Fork(t, u epoch.Tid)
	// Join handles join(t,u); thread u must have terminated.
	Join(t, u epoch.Tid)

	// Reports returns the races recorded so far in detection order. It
	// may be called concurrently with handlers; the result is a snapshot.
	Reports() []Report

	// RuleCounts aggregates, per analysis rule, how many times each rule
	// fired. Call only when the target is quiescent (no handler running).
	RuleCounts() [spec.NumRules]uint64
}

// Report describes one detected race: the kernel's report, which the
// offline machine and the vft-go shim also produce.
type Report = kernel.Report

// reportSink accumulates reports under a mutex: races are rare, so this
// cold-path lock never matters for throughput. maxPerVar caps reports per
// variable (0 = unlimited): RoadRunner tools typically warn once per field
// and a hot racy variable would otherwise flood the sink.
type reportSink struct {
	mu        sync.Mutex
	name      string
	maxPerVar int
	perVar    map[trace.Var]int
	reports   []Report
	dropped   uint64
}

func (s *reportSink) add(r Report) {
	s.mu.Lock()
	if s.maxPerVar > 0 {
		if s.perVar == nil {
			s.perVar = map[trace.Var]int{}
		}
		if s.perVar[r.X] >= s.maxPerVar {
			s.dropped++
			s.mu.Unlock()
			return
		}
		s.perVar[r.X]++
	}
	r.Detector = s.name
	r.Seq = len(s.reports)
	s.reports = append(s.reports, r)
	s.mu.Unlock()
}

// addRace sinks one piece of kernel evidence, if it holds a race.
func (s *reportSink) addRace(ev kernel.Evidence, t epoch.Tid, x trace.Var) {
	if ev.Rule != spec.RuleNone {
		s.add(Report{Rule: ev.Rule, T: t, X: x, Prev: ev.Prev})
	}
}

// droppedCount returns how many reports the per-variable cap suppressed.
func (s *reportSink) droppedCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *reportSink) snapshot() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Report, len(s.reports))
	copy(out, s.reports)
	return out
}

// ThreadState is the per-thread shadow object of Fig. 3: the thread's id,
// its vector clock, and — the §7 local optimization — a cached copy of its
// current epoch E_t so the hot paths never touch the vector.
//
// Per the §4 synchronization discipline, a ThreadState is thread-local to
// its owning thread between fork and termination; the fork/join handlers
// are the only cross-thread accessors and the real fork/join edges order
// them. The vector clock relies on exactly that confinement: it is only
// ever the destination of a join under its owner (Acquire, Join) or before
// its owner starts (Fork), and vc.Join stores every entry it scans whether
// or not the entry advances. As a join's source (Fork, Join, Release) it
// is only read.
type ThreadState struct {
	T epoch.Tid

	e  epoch.Epoch
	vc *vc.VC

	// rules counts analysis-rule firings. Each entry is written only by
	// the owning thread, so counting is free of contention and races.
	rules [spec.NumRules]uint64

	// slowReads/slowWrites count handler executions that had to take the
	// per-variable lock (the complement of the paper's lock-free fast
	// paths); retries counts optimistic-validation restarts in the FT
	// baselines. Owner-thread-written like rules, and incremented only on
	// paths that already paid for a lock or a failed CAS, so the pure
	// blocks of Fig. 4 gain no instructions.
	slowReads  uint64
	slowWrites uint64
	retries    uint64
}

func newThreadState(t epoch.Tid) *ThreadState {
	c := vc.New()
	c.Inc(t)
	return &ThreadState{T: t, e: c.Get(t), vc: c}
}

// Epoch returns the thread's current epoch E_t.
func (st *ThreadState) Epoch() epoch.Epoch { return st.e }

// VC returns the thread's vector clock (owned by the thread; callers other
// than the owning thread must be ordered by a fork/join edge).
func (st *ThreadState) VC() *vc.VC { return st.vc }

// refresh re-caches E_t after a vector-clock update.
func (st *ThreadState) refresh() { st.e = st.vc.Get(st.T) }

func (st *ThreadState) count(r spec.Rule) { st.rules[r]++ }

func (st *ThreadState) countSlowRead()  { st.slowReads++ }
func (st *ThreadState) countSlowWrite() { st.slowWrites++ }
func (st *ThreadState) countRetry()     { st.retries++ }

// LockState is the per-lock shadow object: the clock of the lock's last
// release. Per the discipline it is protected by the target lock m itself —
// handlers run while m is held — so no additional synchronization appears
// here: Release overwrites the clock and Acquire reads it as a join's
// source, both under m.
//
// The lock owns a mutable clock that Release overwrites in place
// (Fig. 3's Sm.V := St.V): copying into existing storage keeps the online
// release path allocation-free at steady state, which the bounded-memory
// streaming guarantee relies on.
type LockState struct {
	vc *vc.VC
}

// syncBase carries the state and handler code shared by all the
// vector-clock detectors: thread and lock tables and the acquire / release
// / fork / join handlers, which are identical in every variant (only the
// original-FastTrack join increment differs, controlled by joinInc).
type syncBase struct {
	sink    reportSink
	threads *shadow.Table[ThreadState]
	locks   *shadow.Table[LockState]
	joinInc bool // FastTrackOrig's extra Su.V(u) increment
}

func newSyncBase(name string, cfg Config, joinInc bool) syncBase {
	return syncBase{
		sink:    reportSink{name: name, maxPerVar: cfg.MaxReportsPerVar},
		joinInc: joinInc,
		threads: shadow.NewTable(func(i int) *ThreadState { return newThreadState(epoch.Tid(i)) }),
		locks:   shadow.NewTable(func(int) *LockState { return &LockState{vc: vc.New()} }),
	}
}

func (b *syncBase) thread(t epoch.Tid) *ThreadState { return b.threads.Get(int(t)) }

// Acquire implements [Acquire]: St.V := St.V ⊔ Sm.V. A never-released
// lock has an empty clock and joins in O(1); a re-acquire whose release
// clock is already ⊑ the thread's leaves St.V's value as it was.
func (b *syncBase) Acquire(t epoch.Tid, m trace.Lock) {
	st := b.thread(t)
	st.vc.Join(b.locks.Get(int(m)).vc)
	st.refresh()
	st.count(spec.RuleAcquire)
}

// Release implements [Release]: Sm.V := St.V; St.V := inc_t(St.V).
func (b *syncBase) Release(t epoch.Tid, m trace.Lock) {
	st := b.thread(t)
	b.locks.Get(int(m)).vc.Assign(st.vc)
	st.vc.Inc(t)
	st.refresh()
	st.count(spec.RuleRelease)
}

// Fork implements [Fork]: Su.V := Su.V ⊔ St.V; St.V := inc_t(St.V).
func (b *syncBase) Fork(t, u epoch.Tid) {
	st, su := b.thread(t), b.thread(u)
	su.vc.Join(st.vc)
	su.refresh()
	st.vc.Inc(t)
	st.refresh()
	st.count(spec.RuleFork)
}

// Join implements [Join]: St.V := Su.V ⊔ St.V. VerifiedFT drops the
// original FastTrack increment of Su.V(u) (§3); joinInc restores it for the
// FT baselines.
//
// The increment is precisely why §3 calls the original rule a complication
// of the synchronization discipline: with it, joining MUTATES the joined
// thread's state, so two threads joining the same terminated thread
// concurrently (legal per §2, produced by the trace generator) race on
// su's clock under the FT baselines. Without it — the VerifiedFT rule — a
// terminated thread's state is read-only and concurrent joiners are safe
// by construction. Callers driving the FT baselines concurrently must
// serialize double joins themselves.
func (b *syncBase) Join(t, u epoch.Tid) {
	st, su := b.thread(t), b.thread(u)
	st.vc.Join(su.vc)
	st.refresh()
	if b.joinInc {
		su.vc.Inc(u)
		su.refresh()
	}
	st.count(spec.RuleJoin)
}

// Reports returns the races recorded so far.
func (b *syncBase) Reports() []Report { return b.sink.snapshot() }

// RuleCounts sums the per-thread rule counters; call at quiescence.
func (b *syncBase) RuleCounts() [spec.NumRules]uint64 {
	var out [spec.NumRules]uint64
	for _, st := range b.threads.Snapshot() {
		for i, n := range st.rules {
			out[i] += n
		}
	}
	return out
}

// Config configures a detector. Its shadow tables start empty and grow
// with the ids a run names, so there is nothing to size.
type Config struct {
	// MaxReportsPerVar caps race reports per variable (0 = unlimited).
	// RoadRunner tools typically warn once per field; set 1 for that
	// behaviour. Suppressed reports are counted, not lost silently — see
	// the reports.dropped counter of Stats.
	MaxReportsPerVar int
	// ClockImpl is a zero-size placeholder read only by bench/probes.go
	// (frozen with the benchmark); delete with the next `benchmark` PR.
	ClockImpl vc.Impl
}

// DefaultConfig returns the zero Config. Callers: bench/offline.go,
// bench/online.go and bench/probes.go (frozen with the benchmark); delete
// with the next `benchmark` PR.
func DefaultConfig() Config { return Config{} }

// New constructs a detector variant by name. Valid names are listed by
// Variants.
func New(name string, cfg Config) (Detector, error) {
	switch name {
	case "vft-v1":
		return NewV1(cfg), nil
	case "vft-v1.5":
		return NewV15(cfg), nil
	case "vft-v2":
		return NewV2(cfg), nil
	case "ft-mutex":
		return NewFTMutex(cfg), nil
	case "ft-cas":
		return NewFTCAS(cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown detector %q (want one of %v)", name, Variants())
	}
}

// Variants lists the available detector names: Table 1's columns, in
// Table 1's order.
func Variants() []string {
	return []string{"ft-mutex", "ft-cas", "vft-v1", "vft-v1.5", "vft-v2"}
}

// Replay drives a detector sequentially over a core-language trace,
// dispatching each operation to its handler, and returns the detector's
// reports. It is the reference driver for differential testing; concurrent
// execution is exercised through internal/rtsim.
func Replay(d Detector, tr trace.Trace) []Report {
	for _, op := range tr {
		Dispatch(d, op)
	}
	return d.Reports()
}

// Dispatch routes one core-language operation to the matching handler.
func Dispatch(d Detector, op trace.Op) {
	switch op.Kind {
	case trace.Read:
		d.Read(op.T, op.X)
	case trace.Write:
		d.Write(op.T, op.X)
	case trace.Acquire:
		d.Acquire(op.T, op.M)
	case trace.Release:
		d.Release(op.T, op.M)
	case trace.Fork:
		d.Fork(op.T, op.U)
	case trace.Join:
		d.Join(op.T, op.U)
	default:
		panic(fmt.Sprintf("core: Dispatch on extended op %v (Desugar first)", op))
	}
}

// FirstReportPosition replays tr op by op and returns the index of the
// operation at which d produced its first report, or -1 if none. It is the
// bridge between the continuing detectors and the stop-at-first-error
// specification.
func FirstReportPosition(d Detector, tr trace.Trace) int {
	for i, op := range tr {
		Dispatch(d, op)
		if len(d.Reports()) > 0 {
			return i
		}
	}
	return -1
}
