package core

import (
	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
)

// V2 is VerifiedFT-v2, the paper's headline algorithm (Fig. 4): all three
// most-common analysis rules — [Read Same Epoch], [Write Same Epoch] and
// [Read Shared Same Epoch], together about 85% of all accesses (§5) — run
// lock-free, in pure blocks before the critical section. The remaining
// cases take the per-variable lock and run the same slow path as v1.
//
// The crucial addition over v1.5 is the lock-free read of the read vector
// in the [Read Shared Same Epoch] case, which stops concurrent reads of
// read-shared variables from serializing on sx.mu. Its soundness rests on
// the §5 discipline encoded in atomicVarState: once Shared, R is immutable;
// entry t of the vector is written only by thread t under the lock; and
// thread t may read entry t without the lock after observing Shared through
// the atomic (volatile) R.
type V2 struct {
	syncBase
	vars *shadow.Table[atomicVarState]
}

// NewV2 returns a VerifiedFT-v2 detector.
func NewV2(cfg Config) *V2 {
	return &V2{
		syncBase: newSyncBase("vft-v2", cfg, false),
		vars:     shadow.NewTable(newAtomicVarState),
	}
}

// Name implements Detector.
func (d *V2) Name() string { return "vft-v2" }

// Read handles rd(t,x) per Fig. 4 lines 127-152: the pure block tries
// [Read Same Epoch] (one atomic load) and [Read Shared Same Epoch] (an
// atomic load of R, the vector pointer, and a plain read of own entry);
// only on a miss does it fall into the critical section.
func (d *V2) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	// pure {
	r := sx.loadR()
	if r == e {
		st.count(spec.ReadSameEpoch) // [Read Same Epoch]
		return
	}
	if r.IsShared() && sx.getShared(t) == e {
		st.count(spec.ReadSharedSameEpoch) // [Read Shared Same Epoch]
		return
	}
	// }
	sx.lock()
	rule := sx.lockedRead(sx.loadR(), sx.loadW(), st, e, false, &d.sink, x)
	sx.unlock()
	st.count(rule)
	st.countSlowRead() // pure-block miss: the access paid for the lock
}

// Write handles wr(t,x) per Fig. 4 lines 154-173.
func (d *V2) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	// pure { if (sx.W == e) return }
	if sx.loadW() == e {
		st.count(spec.WriteSameEpoch) // [Write Same Epoch]
		return
	}
	sx.lock()
	rule := sx.lockedWrite(sx.loadW(), sx.loadR(), st, e, &d.sink, x)
	sx.unlock()
	st.count(rule)
	st.countSlowWrite()
}
