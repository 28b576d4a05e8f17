package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
)

// atomicVarState is the VarState representation shared by the optimized
// detectors (v1.5, v2, FT-Mutex). Its discipline is the §5 discipline
// translated to Go:
//
//	w — write-protected by mu: stores only under mu, loads anywhere. The
//	    field is atomic (the paper's volatile) so unlocked loads are
//	    well-defined.
//	r — initially write-protected by mu and immutable once Shared; same
//	    volatile treatment.
//	v — the read vector. The slice pointer is published atomically;
//	    entries are written only under mu, and entry t is written only by
//	    thread t once the variable is Shared. Thread t may read entry t
//	    without the lock *after* observing r == Shared: the atomic store
//	    of Shared (release) and the atomic load (acquire) order the
//	    entry writes of the Share transition before the unlocked read,
//	    exactly the role VarState's volatile declarations play in §5.
type atomicVarState struct {
	mu sync.Mutex
	w  atomic.Uint64           // an epoch; zero value is ⊥e (0@0)
	r  atomic.Uint64           // an epoch or epoch.Shared
	v  atomic.Pointer[ReadVec] // nil until the first Share transition
}

func newAtomicVarState(int) *atomicVarState { return &atomicVarState{} }

func (sx *atomicVarState) loadR() epoch.Epoch { return epoch.Epoch(sx.r.Load()) }
func (sx *atomicVarState) loadW() epoch.Epoch { return epoch.Epoch(sx.w.Load()) }

// getShared reads the read-vector entry for thread t. Callers must either
// hold mu or be thread t itself having observed r == Shared (the v2
// fast-path case).
func (sx *atomicVarState) getShared(t epoch.Tid) epoch.Epoch {
	p := sx.v.Load()
	if p == nil || int(t) >= len(*p) {
		return epoch.Min(t)
	}
	return (*p)[t]
}

// setShared writes the read-vector entry for thread t; mu must be held.
// Growth copies and republishes the slice (Fig. 3's ensureCapacity); the
// atomic pointer store makes the copied entries visible to unlocked
// fast-path readers that load the new pointer.
func (sx *atomicVarState) setShared(t epoch.Tid, e epoch.Epoch) {
	var v ReadVec
	if p := sx.v.Load(); p != nil {
		v = *p
	}
	if int(t) < len(v) {
		v[t] = e
		return
	}
	grown := v.Set(t, e)
	sx.v.Store(&grown)
}

// lockedRead is the read handler's critical section for the atomic
// representation — the body of Fig. 4's synchronized block (lines 136-151)
// — given the R and W the caller loaded under mu (v1.5, v2) or validated
// under mu (FT-Mutex). The kernel re-checks the fast-path cases, since the
// state may have changed between an unlocked pure block and lock
// acquisition; the discipline here is the order of the stores: vector
// entries first, then Shared published through the atomic R — the
// release/acquire pair that makes the v2 fast path sound.
func (sx *atomicVarState) lockedRead(r, w epoch.Epoch, st *ThreadState, e epoch.Epoch, priorRead bool, sink *reportSink, x trace.Var) spec.Rule {
	var own epoch.Epoch
	if r.IsShared() {
		own = sx.getShared(st.T)
	}
	rule, upd, race := StepRead(r, w, own, e, st.vc.View(), priorRead)
	sink.addRace(race, st.T, x)
	switch upd {
	case SetR:
		sx.r.Store(uint64(e))
	case Share:
		sx.setShared(r.Tid(), r)
		sx.setShared(st.T, e)
		sx.r.Store(uint64(epoch.Shared))
	case SetOwn:
		sx.setShared(st.T, e)
	}
	return rule
}

// lockedWrite is the write handler's critical section for the atomic
// representation — the body of Fig. 4's synchronized block (lines
// 161-172); w and r as in lockedRead (W first: the order Fig. 4 reads
// them). The W store is also the repair action after a race, so checking
// continues.
func (sx *atomicVarState) lockedWrite(w, r epoch.Epoch, st *ThreadState, e epoch.Epoch, sink *reportSink, x trace.Var) spec.Rule {
	var v ReadVec
	if r.IsShared() {
		if p := sx.v.Load(); p != nil {
			v = *p
		}
	}
	rule, upd, race, race2 := StepWrite(r, w, e, v, st.vc.View())
	sink.addRace(race, st.T, x)
	sink.addRace(race2, st.T, x)
	if upd == SetW {
		sx.w.Store(uint64(e))
	}
	return rule
}

// V15 is VerifiedFT-v1.5 (§8, Table 1): v1 with lock-free [Read Same Epoch]
// and [Write Same Epoch] pure blocks, but — unlike v2 — no lock-free
// [Read Shared Same Epoch]. The paper includes it to show that optimizing
// the read-shared case is what rescues benchmarks like sparse and sunflow.
type V15 struct {
	syncBase
	vars *shadow.Table[atomicVarState]
}

// NewV15 returns a VerifiedFT-v1.5 detector.
func NewV15(cfg Config) *V15 {
	return &V15{
		syncBase: newSyncBase("vft-v1.5", cfg, false),
		vars:     shadow.NewTable(cfg.Vars, newAtomicVarState),
	}
}

// Name implements Detector.
func (d *V15) Name() string { return "vft-v1.5" }

// Read handles rd(t,x): lock-free [Read Same Epoch] pure block, then the
// locked slow path.
func (d *V15) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	// pure { if (sx.R == e) return } — no lock.
	if sx.loadR() == e {
		st.count(spec.ReadSameEpoch)
		return
	}
	sx.mu.Lock()
	rule := sx.lockedRead(sx.loadR(), sx.loadW(), st, e, false, &d.sink, x)
	sx.mu.Unlock()
	st.count(rule)
	st.countSlowRead()
}

// Write handles wr(t,x): lock-free [Write Same Epoch] pure block, then the
// locked slow path.
func (d *V15) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	// pure { if (sx.W == e) return } — no lock.
	if sx.loadW() == e {
		st.count(spec.WriteSameEpoch)
		return
	}
	sx.mu.Lock()
	rule := sx.lockedWrite(sx.loadW(), sx.loadR(), st, e, &d.sink, x)
	sx.mu.Unlock()
	st.count(rule)
	st.countSlowWrite()
}
