package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/kernel"
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
	w  atomic.Uint64                  // an epoch; zero value is ⊥e (0@0)
	r  atomic.Uint64                  // an epoch or epoch.Shared
	v  atomic.Pointer[kernel.ReadVec] // nil until the first Share transition
}

func newAtomicVarState(int) *atomicVarState { return &atomicVarState{} }

// mcAction names one shared action of a VarState. Every handler reaches
// the fields above only through the accessors below (and lock/unlock,
// defined per build in mc_off.go and mc_on.go), and each accessor first
// calls mcStep with its action. In the default build mcStep is empty and
// inlines away; under the vftmc tag it is a scheduling point of
// internal/reduction's interleaving explorer.
type mcAction uint8

const (
	mcLoadR      mcAction = iota // load of r
	mcLoadW                      // load of w
	mcLoadV                      // load of the vector pointer
	mcReadEntry                  // read of one vector entry
	mcReadVec                    // read of every vector entry (lockedWrite)
	mcWriteEntry                 // in-place write of one vector entry
	mcStoreR                     // store of r
	mcStoreW                     // store of w
	mcStoreV                     // store of the vector pointer
	mcLock                       // mu.Lock
	mcUnlock                     // mu.Unlock
)

func (sx *atomicVarState) loadR() epoch.Epoch       { mcStep(mcLoadR, 0); return epoch.Epoch(sx.r.Load()) }
func (sx *atomicVarState) loadW() epoch.Epoch       { mcStep(mcLoadW, 0); return epoch.Epoch(sx.w.Load()) }
func (sx *atomicVarState) loadV() *kernel.ReadVec   { mcStep(mcLoadV, 0); return sx.v.Load() }
func (sx *atomicVarState) storeR(e epoch.Epoch)     { mcStep(mcStoreR, 0); sx.r.Store(uint64(e)) }
func (sx *atomicVarState) storeW(e epoch.Epoch)     { mcStep(mcStoreW, 0); sx.w.Store(uint64(e)) }
func (sx *atomicVarState) storeV(v *kernel.ReadVec) { mcStep(mcStoreV, 0); sx.v.Store(v) }

// getShared reads the read-vector entry for thread t. Callers must either
// hold mu or be thread t itself having observed r == Shared (the v2
// fast-path case).
func (sx *atomicVarState) getShared(t epoch.Tid) epoch.Epoch {
	p := sx.loadV()
	if p == nil || int(t) >= len(*p) {
		return epoch.Min(t)
	}
	mcStep(mcReadEntry, t)
	return (*p)[t]
}

// setShared writes the read-vector entry for thread t; mu must be held.
// Growth copies and republishes the slice (Fig. 3's ensureCapacity); the
// atomic pointer store makes the copied entries visible to unlocked
// fast-path readers that load the new pointer.
func (sx *atomicVarState) setShared(t epoch.Tid, e epoch.Epoch) {
	var v kernel.ReadVec
	if p := sx.loadV(); p != nil {
		v = *p
	}
	if int(t) < len(v) {
		mcStep(mcWriteEntry, t)
		v[t] = e
		return
	}
	grown := v.Set(t, e)
	sx.storeV(&grown)
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
	rule, upd, race := kernel.StepRead(r, w, own, e, st.vc.View(), priorRead)
	sink.addRace(race, st.T, x)
	switch upd {
	case kernel.SetR:
		sx.storeR(e)
	case kernel.Share:
		sx.setShared(r.Tid(), r)
		sx.setShared(st.T, e)
		sx.storeR(epoch.Shared)
	case kernel.SetOwn:
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
	var v kernel.ReadVec
	if r.IsShared() {
		if p := sx.loadV(); p != nil {
			mcStep(mcReadVec, 0)
			v = *p
		}
	}
	rule, upd, race, race2 := kernel.StepWrite(r, w, e, v, st.vc.View())
	sink.addRace(race, st.T, x)
	sink.addRace(race2, st.T, x)
	if upd == kernel.SetW {
		sx.storeW(e)
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
		vars:     shadow.NewTable(newAtomicVarState),
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
	sx.lock()
	rule := sx.lockedRead(sx.loadR(), sx.loadW(), st, e, false, &d.sink, x)
	sx.unlock()
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
	sx.lock()
	rule := sx.lockedWrite(sx.loadW(), sx.loadR(), st, e, &d.sink, x)
	sx.unlock()
	st.count(rule)
	st.countSlowWrite()
}
