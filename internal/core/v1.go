package core

import (
	"sync"

	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// V1 is VerifiedFT-v1, the basic concurrent implementation of Fig. 3: mutex
// locks protect all mutable shared analysis state.
//
// Synchronization discipline (§4):
//
//	sx.W, sx.R, sx.V, sx.V[*]  — protected by the per-variable lock sx.mu
//	sm.V, sm.V[*]              — protected by the target lock m
//	st.T                       — read-only
//	st.V, st.V[*]              — thread-local (phase changes at fork/join)
//
// Every read and write handler acquires sx.mu for its full duration, which
// is what makes v1 correct-but-slow: the lock round-trip taxes every access
// and serializes concurrent reads of read-shared variables (§4,
// "Comparison to Prior FastTrack Implementations").
type V1 struct {
	syncBase
	vars *shadow.Table[v1VarState]
}

// v1VarState uses plain (non-atomic) fields: the discipline guarantees all
// accesses happen under mu.
type v1VarState struct {
	mu sync.Mutex
	r  epoch.Epoch
	w  epoch.Epoch
	v  *vc.VC
}

func newV1VarState(int) *v1VarState {
	return &v1VarState{r: epoch.Min(0), w: epoch.Min(0), v: vc.New()}
}

// NewV1 returns a VerifiedFT-v1 detector.
func NewV1(cfg Config) *V1 {
	return &V1{
		syncBase: newSyncBase("vft-v1", cfg, false),
		vars:     shadow.NewTable(cfg.Vars, newV1VarState),
	}
}

// Name implements Detector.
func (d *V1) Name() string { return "vft-v1" }

// Read implements the read handler of Fig. 3 (lines 60-82).
func (d *V1) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	sx.mu.Lock()
	rule := readLocked(st, e, &sx.r, &sx.w, sx.v, &d.sink, x)
	sx.mu.Unlock()
	st.count(rule)
	st.countSlowRead() // v1 has no fast path: every read is a lock round-trip
}

// Write implements the write handler of Fig. 3 (lines 84-100).
func (d *V1) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	sx.mu.Lock()
	rule := writeLocked(st, e, &sx.r, &sx.w, sx.v, &d.sink, x)
	sx.mu.Unlock()
	st.count(rule)
	st.countSlowWrite()
}

// readLocked is the body of the read handler once the variable lock is
// held, operating on v1's plain-field representation. The atomic variants
// have the same logic over atomic fields in readSlow (v15.go); the slow
// paths are deliberately line-for-line parallel so the only difference
// between v1, v1.5 and v2 is how much work happens before taking the lock.
func readLocked(st *ThreadState, e epoch.Epoch, r, w *epoch.Epoch, v *vc.VC, sink *reportSink, x trace.Var) spec.Rule {
	// [Read Same Epoch] — re-checked under the lock: the epoch may have
	// been written between an unlocked fast-path check and lock acquisition
	// in the optimized variants; in v1 this is simply the first check.
	if *r == e {
		return spec.ReadSameEpoch
	}
	// [Read Shared Same Epoch]
	if r.IsShared() && v.Get(st.T) == e {
		return spec.ReadSharedSameEpoch
	}
	rule := spec.RuleNone
	// [Write-Read Race]
	if !st.vc.EpochLeq(*w) {
		sink.add(Report{Rule: spec.WriteReadRace, T: st.T, X: x, Prev: *w})
		rule = spec.WriteReadRace
		// Continue checking (§7): fall through and update the read state
		// as if the access had been race-free.
	}
	switch {
	case !r.IsShared() && st.vc.EpochLeq(*r):
		// [Read Exclusive]
		*r = e
		if rule == spec.RuleNone {
			rule = spec.ReadExclusive
		}
	case !r.IsShared():
		// [Read Share]: v := ⊥V[t := E_t, u := Sx.R]
		u := r.Tid()
		v.Set(u, *r)
		v.Set(st.T, e)
		*r = epoch.Shared
		if rule == spec.RuleNone {
			rule = spec.ReadShare
		}
	default:
		// [Read Shared]
		v.Set(st.T, e)
		if rule == spec.RuleNone {
			rule = spec.ReadShared
		}
	}
	return rule
}

// writeLocked is the body of the write handler under the variable lock,
// shared by v1, v1.5 and v2.
func writeLocked(st *ThreadState, e epoch.Epoch, r, w *epoch.Epoch, v *vc.VC, sink *reportSink, x trace.Var) spec.Rule {
	// [Write Same Epoch] — re-checked under the lock.
	if *w == e {
		return spec.WriteSameEpoch
	}
	rule := spec.RuleNone
	// [Write-Write Race]
	if !st.vc.EpochLeq(*w) {
		sink.add(Report{Rule: spec.WriteWriteRace, T: st.T, X: x, Prev: *w})
		rule = spec.WriteWriteRace
	}
	if !r.IsShared() {
		// [Read-Write Race]
		if !st.vc.EpochLeq(*r) {
			sink.add(Report{Rule: spec.ReadWriteRace, T: st.T, X: x, Prev: *r})
			if rule == spec.RuleNone {
				rule = spec.ReadWriteRace
			}
		} else if rule == spec.RuleNone {
			rule = spec.WriteExclusive
		}
	} else {
		// [Shared-Write Race]
		if !v.Leq(st.vc) {
			sink.add(Report{Rule: spec.SharedWriteRace, T: st.T, X: x, Prev: firstUnorderedEntry(v, st.vc)})
			if rule == spec.RuleNone {
				rule = spec.SharedWriteRace
			}
		} else if rule == spec.RuleNone {
			rule = spec.WriteShared
		}
	}
	// [Write Exclusive] / [Write Shared] update; also the repair action
	// after a detected race, so checking continues downstream.
	*w = e
	return rule
}

// firstUnorderedEntry returns race evidence for [Shared-Write Race]: the
// first read-vector entry not covered by the writer's clock.
func firstUnorderedEntry(v, clock *vc.VC) epoch.Epoch {
	for i := 0; i < v.Size(); i++ {
		t := epoch.Tid(i)
		if !clock.EpochLeq(v.Get(t)) {
			return v.Get(t)
		}
	}
	return epoch.Min(0)
}
