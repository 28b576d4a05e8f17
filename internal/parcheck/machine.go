package parcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// access is a fused run of n >= 1 adjacent read/write events of the
// lowered stream — same thread, same variable, no operation of any other
// kind in between — together with the acting thread's vector clock at the
// moment of the accesses. Because the Fig. 2 access rules never mutate
// thread clocks — only acquire/release/fork/join do — the snapshot is
// exactly the value the sequential detector would have observed, which is
// the correctness foundation of the two-phase split; and because nothing
// at all separates the run's ops, one snapshot serves all n of them.
type access struct {
	idx     int // position of op 0 in the lowered stream; op j is at idx+j
	t       epoch.Tid
	x       trace.Var
	n       uint16 // ops fused into this record (1..fuseMax)
	pattern uint64 // bit j set: op j is a write
	clock   *vc.Frozen
}

// fuseMax caps a fused run at the pattern bitmask's width.
const fuseMax = 64

// taggedReport carries a report with its (access index, emission index
// within the access) key; the merge stage sorts on it to reproduce the
// sequential sink order.
type taggedReport struct {
	idx, sub int
	rep      core.Report
}

// variantSpec is what a detector variant name resolves to. The five
// precise epoch variants (vft-v1/v1.5/v2, ft-mutex, ft-cas) share the one
// sharded machine — the fast paths, locking disciplines and word packings
// they differ in are invisible to a single-threaded replay — up to the two
// discipline quirks of the historical baselines below. djit and eraser
// keep no per-variable epoch state to shard: at any worker count they are
// answered by core's own detector on the calling goroutine
// (checkSequential).
type variantSpec struct {
	sequential bool
	// joinInc restores the original FastTrack [Join] increment of the
	// joined thread's clock, which the FT baselines keep and VerifiedFT
	// drops (§3).
	joinInc bool
	// priorRead selects the historical FT-Mutex/FT-CAS read ordering; see
	// core.StepRead.
	priorRead bool
}

// specFor maps a detector variant name to its replay specification.
func specFor(variant string) (variantSpec, error) {
	switch variant {
	case "vft-v1", "vft-v1.5", "vft-v2":
		return variantSpec{}, nil
	case "ft-mutex", "ft-cas":
		return variantSpec{joinInc: true, priorRead: true}, nil
	case "djit", "eraser":
		return variantSpec{sequential: true}, nil
	default:
		return variantSpec{}, fmt.Errorf("parcheck: unknown detector %q (want one of %v)", variant, core.Variants())
	}
}

// varState is the per-variable shadow of the epoch machine. The zero value
// is the initial state: r = w = 0@0 (the minimal epoch Min(0), as the
// sequential detectors initialize), no read vector.
type varState struct {
	r, w    epoch.Epoch
	v       core.ReadVec // allocated by the Share transition
	reports int
}

// runAccess replays a fused run. Op 0 always runs. A later op is elided —
// skipped as a proven no-op — exactly when (a) no race condition has fired
// anywhere in this run and (b) it repeats the immediately preceding op's
// kind. Justification: the run's ops share one thread, one variable and
// one clock, so after a clean read the machine's read state is a fixpoint
// for an identical read (the same-epoch exits of Fig. 2/4), and
// symmetrically for writes. A kind switch (read after write, write after
// read) can change state and always replays; and once any check fires,
// all remaining ops replay, because the historical variants report racy
// repeats on every access (priorRead) and the report stream must stay
// byte-identical.
func (w *shardWorker) runAccess(a access) {
	fired := false
	prevWrite := false
	for j := 0; j < int(a.n); j++ {
		write := a.pattern>>uint(j)&1 != 0
		if j > 0 && !fired && write == prevWrite {
			w.elided++
			continue
		}
		if w.step(a, a.idx+j, write) {
			fired = true
		}
		prevWrite = write
	}
}

// step replays one access: load the variable's plain fields, ask the
// Fig. 2 kernel (core.StepRead/StepWrite) against the precomputed frozen
// clock, sink the evidence, store the update. The shard owns the variable,
// so the discipline is no synchronization at all. It reports whether any
// race condition fired (admitted to the sink or suppressed by the cap —
// either way the op was not a no-op).
func (w *shardWorker) step(a access, idx int, write bool) bool {
	s := w.state(a.x)
	clock := core.ClockView(a.clock.View())
	e := a.clock.Get(a.t)
	var upd core.Update
	var race, race2 core.Evidence
	if write {
		_, upd, race, race2 = core.StepWrite(s.r, s.w, e, s.v, clock)
	} else {
		var own epoch.Epoch
		if s.r.IsShared() {
			own = s.v.Get(a.t)
		}
		_, upd, race = core.StepRead(s.r, s.w, own, e, clock, w.priorRead)
	}
	fired := race.Rule != spec.RuleNone || race2.Rule != spec.RuleNone
	if fired {
		sub := 0
		w.emitCapped(s, a, idx, &sub, race)
		w.emitCapped(s, a, idx, &sub, race2)
	}
	switch upd {
	case core.SetR:
		s.r = e
	case core.Share:
		s.v = s.v.Set(s.r.Tid(), s.r).Set(a.t, e)
		s.r = epoch.Shared
	case core.SetOwn:
		s.v = s.v.Set(a.t, e)
	case core.SetW:
		s.w = e
	}
	return fired
}

// emitCapped records one piece of evidence subject to the per-variable
// cap, exactly as core's reportSink does: suppressed reports are counted,
// not silently lost. Because a variable's accesses all land in one shard
// in stream order, the cap cuts off at the same access as the sequential
// sink.
func (w *shardWorker) emitCapped(s *varState, a access, idx int, sub *int, ev core.Evidence) {
	if ev.Rule == spec.RuleNone {
		return
	}
	if w.maxPerVar > 0 && s.reports >= w.maxPerVar {
		w.dropped++
		return
	}
	s.reports++
	w.out = append(w.out, taggedReport{idx: idx, sub: *sub, rep: core.Report{Rule: ev.Rule, T: a.t, X: a.x, Prev: ev.Prev}})
	*sub++
}

// state returns variable x's machine state. The front stage hands out
// variable ids densely and a shard owns every stride-th one, so its
// variables sit at x/stride in a plain slice, bounded by the variables the
// trace names.
func (w *shardWorker) state(x trace.Var) *varState {
	q := int(x) / w.stride
	if q >= len(w.vars) {
		grown := make([]varState, max(2*len(w.vars), q+1))
		copy(grown, w.vars)
		w.vars = grown
	}
	return &w.vars[q]
}
