package parcheck

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// frontStage sits between the feed and the detector and does the two
// things that must happen exactly once per check.
//
// It samples: the policy decides on the *raw* variable id — the decision
// stays a pure function of (seed, var) whatever else the trace names — and
// an access to a rejected variable is counted and dropped here, before it
// can reach a table.
//
// It compacts: thread, variable and lowered-lock ids are renumbered
// densely in first-touch order, so every table behind it — core's flat
// shadow tables, the entries of every vector clock — is proportional to
// the ids the trace names, not to their magnitude: `fork 0 65000` costs a second thread, not
// 65,000 clocks each spanning its own tid. The analyses look only at the
// state an id indexes, never at the id, and restore maps reports back, so
// compaction is invisible with one exception: where several prior accesses
// are unordered with a racing access, the one a report names as evidence
// is the first in thread order, which is now first-touch order. The two
// coincide whenever threads are first named in increasing id order (every
// producer in this repository forks that way).
//
// Its entries are one per lowered kind and take compact thread ids, raw
// variable ids and lowered lock ids; the feed calls them from its own
// switch. Thread ids arrive compact because on a validated stream the
// validator's ordinals are first-touch order already (main, then each
// thread at its fork: see trace.Validator.Ordinal); push, for an already
// lowered stream, compacts them itself.
type frontStage struct {
	sampler *sample.Policy // nil: every access is admitted
	det     core.Detector  // receives what the stage admits, under compact ids

	// Every id a check gives a value is listed below, for reset.
	tids     trace.IDTable[epoch.Tid, uint32]
	vars     trace.IDTable[trace.Var, uint32]
	locks    trace.IDTable[trace.Lock, uint32]
	origT    []epoch.Tid  // compact tid -> raw
	origX    []trace.Var  // compact variable -> raw
	origM    []trace.Lock // compact lock -> lowered
	rejected []trace.Var  // variables the sampler rejected

	accesses, syncs                   uint64 // ops handed to the detector
	suppressedReads, suppressedWrites uint64
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

// read hands rd(t,x) on.
func (f *frontStage) read(t epoch.Tid, x trace.Var) {
	v := f.vars.Get(x)
	if v == unseen {
		v = f.newVar(x)
	}
	if v == suppressed {
		f.suppressedReads++
		return
	}
	f.accesses++
	f.det.Read(t, trace.Var(v-firstID))
}

// write hands wr(t,x) on.
func (f *frontStage) write(t epoch.Tid, x trace.Var) {
	v := f.vars.Get(x)
	if v == unseen {
		v = f.newVar(x)
	}
	if v == suppressed {
		f.suppressedWrites++
		return
	}
	f.accesses++
	f.det.Write(t, trace.Var(v-firstID))
}

// newVar numbers a variable at its first access, or marks it suppressed
// if the sampler rejects it.
func (f *frontStage) newVar(x trace.Var) uint32 {
	v := uint32(suppressed)
	if f.sampler == nil || f.sampler.Sampled(x) {
		v = uint32(len(f.origX)) + firstID
		f.origX = append(f.origX, x)
	} else {
		f.rejected = append(f.rejected, x)
	}
	f.vars.Set(x, v, maxDenseIDs)
	return v
}

// acquire hands acq(t,m) on, m a lowered lock id.
func (f *frontStage) acquire(t epoch.Tid, m trace.Lock) {
	v := f.locks.Get(m)
	if v == unseen {
		v = f.newLock(m)
	}
	f.syncs++
	f.det.Acquire(t, trace.Lock(v-firstID))
}

// release hands rel(t,m) on, m a lowered lock id.
func (f *frontStage) release(t epoch.Tid, m trace.Lock) {
	v := f.locks.Get(m)
	if v == unseen {
		v = f.newLock(m)
	}
	f.syncs++
	f.det.Release(t, trace.Lock(v-firstID))
}

func (f *frontStage) fork(t, u epoch.Tid) {
	f.syncs++
	f.det.Fork(t, u)
}

func (f *frontStage) join(t, u epoch.Tid) {
	f.syncs++
	f.det.Join(t, u)
}

// push hands on one operation of an already lowered stream, renumbering
// its threads in first-touch order.
func (f *frontStage) push(op trace.Op) {
	t := f.tid(op.T)
	switch op.Kind {
	case trace.Read:
		f.read(t, op.X)
	case trace.Write:
		f.write(t, op.X)
	case trace.Acquire:
		f.acquire(t, op.M)
	case trace.Release:
		f.release(t, op.M)
	case trace.Fork:
		f.fork(t, f.tid(op.U))
	default: // join
		f.join(t, f.tid(op.U))
	}
}

func (f *frontStage) tid(t epoch.Tid) epoch.Tid {
	v := f.tids.Get(t)
	if v == unseen {
		v = uint32(len(f.origT)) + firstID
		f.origT = append(f.origT, t)
		f.tids.Set(t, v, maxDenseIDs)
	}
	return epoch.Tid(v - firstID)
}

// newLock numbers a lowered lock at its first use.
func (f *frontStage) newLock(m trace.Lock) uint32 {
	v := uint32(len(f.origM)) + firstID
	f.origM = append(f.origM, m)
	f.locks.Set(m, v, maxDenseIDs)
	return v
}

// restore rewrites the detector's reports onto the trace's own ids.
func (f *frontStage) restore(reports []core.Report) []core.Report {
	for i := range reports {
		r := &reports[i]
		r.T = f.origT[r.T]
		r.X = f.origX[r.X]
		r.Prev = epoch.Make(f.origT[r.Prev.Tid()], r.Prev.Clock())
	}
	return reports
}

// addStats records what the stage saw: the op totals of the lowered
// stream and, if the tier is on, the sampling.* accounting.
func (f *frontStage) addStats(s obs.Snapshot) {
	s.Counters["ops.total"] = f.accesses + f.syncs + f.suppressedReads + f.suppressedWrites
	s.Counters["ops.access"] = f.accesses
	s.Counters["ops.sync"] = f.syncs
	if f.sampler != nil {
		core.AddSamplingStats(s, *f.sampler, f.suppressedReads, f.suppressedWrites,
			uint64(len(f.origX)), uint64(len(f.rejected)))
	}
}

// reset empties the stage for the next check and returns how many id
// table entries it cleared: the ones the last check set, never more.
func (f *frontStage) reset() int {
	n := f.tids.Forget(f.origT) + f.vars.Forget(f.origX) + f.vars.Forget(f.rejected) + f.locks.Forget(f.origM)
	*f = frontStage{
		tids: f.tids, vars: f.vars, locks: f.locks,
		origT: f.origT[:0], origX: f.origX[:0], origM: f.origM[:0], rejected: f.rejected[:0],
	}
	return n
}
