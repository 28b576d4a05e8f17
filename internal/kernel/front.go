package kernel

import (
	"repro/internal/epoch"
	"repro/internal/trace"
)

// Sink receives the core operations of a lowered stream, each thread named
// by its ordinal (trace.Validator.Ordinal) and each lock by its lowered id:
// a Machine, or one of core's detectors behind a Front.
type Sink interface {
	Read(t epoch.Tid, x trace.Var)
	Write(t epoch.Tid, x trace.Var)
	Acquire(t epoch.Tid, m trace.Lock)
	Release(t epoch.Tid, m trace.Lock)
	Fork(t, u epoch.Tid)
	Join(t, u epoch.Tid)
}

// Sampler decides, once per variable at its first access, whether the
// variable's accesses reach the detector (see internal/sample).
type Sampler interface {
	Sampled(x trace.Var) bool
}

// Front is the offline check's stage between a Feed and a detector, and
// does the two things that must happen exactly once per check.
//
// It samples: the policy decides on the *raw* variable id — the decision
// stays a pure function of (seed, var) whatever else the trace names — and
// an access to a rejected variable is counted and dropped here, before it
// can reach a table.
//
// It compacts: thread, variable and lowered-lock ids are renumbered
// densely in first-touch order, so every table behind it — core's flat
// shadow tables, the entries of every vector clock — is proportional to
// the ids the trace names, not to their magnitude: `fork 0 65000` costs a
// second thread, not 65,000 clocks each spanning its own tid. The analyses
// look only at the state an id indexes, never at the id, and Restore maps
// reports back, so compaction is invisible with one exception: where
// several prior accesses are unordered with a racing access, the one a
// report names as evidence is the first in thread order, which is now
// first-touch order. The two coincide whenever threads are first named in
// increasing id order (every producer in this repository forks that way).
//
// A Feed calls its entries, one per lowered kind, by their concrete type.
// They take compact thread ids, raw variable ids and lowered lock ids.
// Thread ids arrive compact because on a validated stream the validator's
// ordinals are first-touch order already (main, then each thread at its
// fork: see trace.Validator.Ordinal); Push, for an already lowered stream,
// compacts them itself. The vft-go shim, whose ids are dense as it
// interns them and which samples nothing, runs its Feed straight into a
// Machine instead.
type Front struct {
	Sampler Sampler // nil: every access is admitted
	Det     Sink    // receives what the stage admits, under compact ids

	// What the stage handed on and dropped.
	Accesses, Syncs                   uint64
	SuppressedReads, SuppressedWrites uint64

	// Every id a check gives a value is listed below, for Reset.
	tids     trace.IDTable[epoch.Tid, uint32]
	vars     trace.IDTable[trace.Var, uint32]
	locks    trace.IDTable[trace.Lock, uint32]
	origT    []epoch.Tid  // compact tid -> raw
	origX    []trace.Var  // compact variable -> raw
	origM    []trace.Lock // compact lock -> lowered
	rejected []trace.Var  // variables the sampler rejected
}

// The id tables' values: unseen, a variable the sampler rejected, or a
// compact id offset by firstID.
const (
	unseen     = 0
	suppressed = 1
	firstID    = 2

	// maxDenseIDs is the id tables' dense window: 2^21 ids, 8 MiB a table
	// at most. Every access and lock op is renumbered through them, so it
	// is wide enough that a real program's variable ids, in the millions,
	// stay dense.
	maxDenseIDs = 1 << 21
)

// Read hands rd(t,x) on.
func (f *Front) Read(t epoch.Tid, x trace.Var) {
	v := f.vars.Get(x)
	if v == unseen {
		v = f.newVar(x)
	}
	if v == suppressed {
		f.SuppressedReads++
		return
	}
	f.Accesses++
	f.Det.Read(t, trace.Var(v-firstID))
}

// Write hands wr(t,x) on.
func (f *Front) Write(t epoch.Tid, x trace.Var) {
	v := f.vars.Get(x)
	if v == unseen {
		v = f.newVar(x)
	}
	if v == suppressed {
		f.SuppressedWrites++
		return
	}
	f.Accesses++
	f.Det.Write(t, trace.Var(v-firstID))
}

// newVar numbers a variable at its first access, or marks it suppressed
// if the sampler rejects it.
func (f *Front) newVar(x trace.Var) uint32 {
	v := uint32(suppressed)
	if f.Sampler == nil || f.Sampler.Sampled(x) {
		v = uint32(len(f.origX)) + firstID
		f.origX = append(f.origX, x)
	} else {
		f.rejected = append(f.rejected, x)
	}
	f.vars.Set(x, v, maxDenseIDs)
	return v
}

// Acquire hands acq(t,m) on, m a lowered lock id.
func (f *Front) Acquire(t epoch.Tid, m trace.Lock) {
	v := f.locks.Get(m)
	if v == unseen {
		v = f.newLock(m)
	}
	f.Syncs++
	f.Det.Acquire(t, trace.Lock(v-firstID))
}

// Release hands rel(t,m) on, m a lowered lock id.
func (f *Front) Release(t epoch.Tid, m trace.Lock) {
	v := f.locks.Get(m)
	if v == unseen {
		v = f.newLock(m)
	}
	f.Syncs++
	f.Det.Release(t, trace.Lock(v-firstID))
}

func (f *Front) Fork(t, u epoch.Tid) {
	f.Syncs++
	f.Det.Fork(t, u)
}

func (f *Front) Join(t, u epoch.Tid) {
	f.Syncs++
	f.Det.Join(t, u)
}

// Push hands on one operation of an already lowered stream, renumbering
// its threads in first-touch order.
func (f *Front) Push(op trace.Op) {
	t := f.tid(op.T)
	switch op.Kind {
	case trace.Read:
		f.Read(t, op.X)
	case trace.Write:
		f.Write(t, op.X)
	case trace.Acquire:
		f.Acquire(t, op.M)
	case trace.Release:
		f.Release(t, op.M)
	case trace.Fork:
		f.Fork(t, f.tid(op.U))
	default: // join
		f.Join(t, f.tid(op.U))
	}
}

func (f *Front) tid(t epoch.Tid) epoch.Tid {
	v := f.tids.Get(t)
	if v == unseen {
		v = uint32(len(f.origT)) + firstID
		f.origT = append(f.origT, t)
		f.tids.Set(t, v, maxDenseIDs)
	}
	return epoch.Tid(v - firstID)
}

// newLock numbers a lowered lock at its first use.
func (f *Front) newLock(m trace.Lock) uint32 {
	v := uint32(len(f.origM)) + firstID
	f.origM = append(f.origM, m)
	f.locks.Set(m, v, maxDenseIDs)
	return v
}

// SetThreads records the raw thread id of each ordinal a Feed handed on:
// the validator's Threads, once the stream has ended.
func (f *Front) SetThreads(tids []epoch.Tid) { f.origT = append(f.origT[:0], tids...) }

// Restore rewrites the detector's reports onto the trace's own ids.
func (f *Front) Restore(reports []Report) []Report {
	for i := range reports {
		r := &reports[i]
		r.T = f.origT[r.T]
		r.X = f.origX[r.X]
		r.Prev = epoch.Make(f.origT[r.Prev.Tid()], r.Prev.Clock())
	}
	return reports
}

// Vars returns how many variables the stage admitted and how many the
// sampler rejected.
func (f *Front) Vars() (sampled, rejected int) { return len(f.origX), len(f.rejected) }

// Named reports whether the check named thread t and variable x, sampled
// or not.
func (f *Front) Named(t epoch.Tid, x trace.Var) (thread, variable bool) {
	return f.tids.Get(t) != unseen, f.vars.Get(x) != unseen
}

// Reset empties the stage for the next check and returns how many id
// table entries it cleared: the ones the last check set, never more.
func (f *Front) Reset() int {
	n := f.tids.Forget(f.origT) + f.vars.Forget(f.origX) + f.vars.Forget(f.rejected) + f.locks.Forget(f.origM)
	*f = Front{
		tids: f.tids, vars: f.vars, locks: f.locks,
		origT: f.origT[:0], origX: f.origX[:0], origM: f.origM[:0], rejected: f.rejected[:0],
	}
	return n
}
