package core

import (
	"sync"

	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/trace"
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
// accesses happen under mu, so its lock and unlock (mc_off.go) are the
// only shared actions the interleaving explorer needs to schedule.
type v1VarState struct {
	mu sync.Mutex
	r  epoch.Epoch
	w  epoch.Epoch
	v  ReadVec
}

func newV1VarState(int) *v1VarState {
	return &v1VarState{r: epoch.Min(0), w: epoch.Min(0)}
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

// Read implements the read handler of Fig. 3 (lines 60-82): the kernel
// decides, plain stores under sx.mu apply.
func (d *V1) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	sx.lock()
	rule, upd, race := StepRead(sx.r, sx.w, sx.v.Get(t), e, st.vc.View(), false)
	d.sink.addRace(race, t, x)
	switch upd {
	case SetR:
		sx.r = e
	case Share:
		sx.v = sx.v.Set(sx.r.Tid(), sx.r).Set(t, e)
		sx.r = epoch.Shared
	case SetOwn:
		sx.v = sx.v.Set(t, e)
	}
	sx.unlock()
	st.count(rule)
	st.countSlowRead() // v1 has no fast path: every read is a lock round-trip
}

// Write implements the write handler of Fig. 3 (lines 84-100).
func (d *V1) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e := st.e
	sx := d.vars.Get(int(x))

	sx.lock()
	rule, upd, race, race2 := StepWrite(sx.r, sx.w, e, sx.v, st.vc.View())
	d.sink.addRace(race, t, x)
	d.sink.addRace(race2, t, x)
	if upd == SetW {
		sx.w = e
	}
	sx.unlock()
	st.count(rule)
	st.countSlowWrite()
}
