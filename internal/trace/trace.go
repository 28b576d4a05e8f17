package trace

import (
	"sort"

	"repro/internal/epoch"
)

// Trace is a finite sequence of operations — one execution of a program
// (§2). The zero value is the empty trace.
type Trace []Op

// Threads returns the sorted set of thread ids appearing in the trace,
// including forked/joined targets, always including the main thread 0 for a
// non-empty trace.
func (tr Trace) Threads() []epoch.Tid {
	seen := map[epoch.Tid]bool{}
	for _, op := range tr {
		seen[op.T] = true
		if op.Kind == Fork || op.Kind == Join {
			seen[op.U] = true
		}
	}
	if len(tr) > 0 {
		seen[0] = true
	}
	out := make([]epoch.Tid, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Vars returns the sorted set of variables accessed by the trace (volatile
// ids are not included; they live in a separate namespace).
func (tr Trace) Vars() []Var {
	seen := map[Var]bool{}
	for _, op := range tr {
		if op.IsAccess() {
			seen[op.X] = true
		}
	}
	out := make([]Var, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Locks returns the sorted set of (real) locks used by the trace.
func (tr Trace) Locks() []Lock {
	seen := map[Lock]bool{}
	for _, op := range tr {
		if op.Kind == Acquire || op.Kind == Release {
			seen[op.M] = true
		}
	}
	out := make([]Lock, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maxRealLock bounds source-trace lock ids; the feasibility checker
// enforces it so Desugar's pseudo-locks (numbered densely above the real
// ones) can never collide with a real lock.
const maxRealLock Lock = 1 << 24

// Desugar lowers the extended language to the six-kind core language:
// volatile and atomic accesses, once-dos, channel closes and completed
// channel communications become acquire/release pairs on per-object
// pseudo-locks, and each completed barrier round serializes its
// participants through a per-barrier round lock. The lowering rules live
// on Lowerer; ext supplies barrier participant counts and channel buffer
// capacities (nil means all defaults: 2-party barriers, unbuffered
// channels).
//
// Pseudo-locks are numbered densely starting just above the trace's largest
// real lock id, so the lowered trace keeps a compact lock id space (the
// detectors index shadow tables by lock id) while never colliding with a
// real lock. The lowering over-synchronizes slightly (e.g. two volatile
// reads of the same location become lock-ordered), which matches what the
// paper's implementation does — it handles a volatile like a
// lock-protected location — and errs toward missing no real races on
// non-volatile data while never inventing happens-before between unrelated
// threads.
func (tr Trace) Desugar(ext *Extensions) Trace {
	nextPseudo := Lock(0)
	for _, op := range tr {
		if (op.Kind == Acquire || op.Kind == Release) && op.M >= nextPseudo {
			nextPseudo = op.M + 1
		}
	}
	out := make(Trace, 0, len(tr))
	l := NewDenseLowerer(ext, nextPseudo)
	emit := func(op Op) { out = append(out, op) }
	for _, op := range tr {
		l.Lower(op, emit)
	}
	return out
}
