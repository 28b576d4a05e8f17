package core

import (
	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
)

// FTMutex reproduces the FT-Mutex baseline distributed with RoadRunner 0.4
// (§4, "Comparison to Prior FastTrack Implementations"): the per-variable
// lock write-protects the VarState fields — writes happen under the lock,
// reads may not — and handlers use an optimistic control mechanism: they
// read the epoch fields without the lock, decide what to do, then take the
// lock, validate that nothing they read has changed, and retry on
// interference.
//
// This buys lock-free [Read Same Epoch] and [Write Same Epoch] paths (no
// writes occur), at the price of the subtle validation/ordering reasoning
// the paper set out to eliminate. The analysis rules themselves are the
// VerifiedFT rules: §8 notes that back-porting them into FT-Mutex does not
// meaningfully change its performance, and using one rule set keeps every
// precise detector verdict-equivalent.
//
// The vector-clock component is not handled optimistically — "the lock sx
// is still used for the vector clock" — so any case that touches the read
// vector validates and then works under the lock.
type FTMutex struct {
	syncBase
	vars *shadow.Table[atomicVarState]
}

// NewFTMutex returns an FT-Mutex detector.
func NewFTMutex(cfg Config) *FTMutex {
	return &FTMutex{
		// The historical implementations use the original [Join] rule.
		syncBase: newSyncBase("ft-mutex", cfg, true),
		vars:     shadow.NewTable(newAtomicVarState),
	}
}

// Name implements Detector.
func (d *FTMutex) Name() string { return "ft-mutex" }

// Read handles rd(t,x) optimistically: snapshot R (and W) unlocked, then
// validate under the lock before deciding and updating; retry on
// interference.
func (d *FTMutex) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	for {
		r0 := sx.loadR()
		if r0 == e {
			st.count(spec.ReadSameEpoch) // lock-free
			return
		}
		w0 := sx.loadW()

		// Decide off-lock on the snapshot; then validate+apply.
		sx.lock()
		if sx.loadR() != r0 || sx.loadW() != w0 {
			sx.unlock() // interference: retry the whole handler
			st.countRetry()
			continue
		}
		// The snapshot is validated: run the shared critical section on it.
		rule := sx.lockedRead(r0, w0, st, e, true, &d.sink, x)
		sx.unlock()
		st.count(rule)
		st.countSlowRead()
		return
	}
}

// Write handles wr(t,x) with the same optimistic structure.
func (d *FTMutex) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	for {
		w0 := sx.loadW()
		if w0 == e {
			st.count(spec.WriteSameEpoch) // lock-free
			return
		}
		r0 := sx.loadR()

		sx.lock()
		if sx.loadR() != r0 || sx.loadW() != w0 {
			sx.unlock()
			st.countRetry()
			continue
		}
		rule := sx.lockedWrite(w0, r0, st, e, &d.sink, x)
		sx.unlock()
		st.count(rule)
		st.countSlowWrite()
		return
	}
}
