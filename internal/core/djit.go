package core

import (
	"sync"

	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// DJIT is a DJIT+-style pure vector-clock race detector: every variable
// carries a full read vector clock and write vector clock and every access
// performs O(threads) vector operations under the per-variable lock. It is
// the algorithm FastTrack's epochs were invented to beat (§9, and the
// Mansky et al. verified detector has this shape), included here as the
// epoch-free baseline for the ablation benchmarks.
//
// DJIT is precise in the same sense as VerifiedFT — its first report lands
// on the same access as the Fig. 2 Error transition — but its reports
// cannot distinguish the Shared-Write from the Read-Write case (it has no
// Shared state), so verdict comparisons check positions, not rules.
type DJIT struct {
	syncBase
	vars *shadow.Table[djitVarState]
}

type djitVarState struct {
	mu  sync.Mutex
	rvc *vc.VC // last-read epoch per thread
	wvc *vc.VC // last-write epoch per thread
}

func newDJITVarState(int) *djitVarState {
	return &djitVarState{rvc: vc.New(), wvc: vc.New()}
}

// NewDJIT returns a DJIT+-style detector.
func NewDJIT(cfg Config) *DJIT {
	return &DJIT{
		syncBase: newSyncBase("djit", cfg, false),
		vars:     shadow.NewTable(newDJITVarState),
	}
}

// Name implements Detector.
func (d *DJIT) Name() string { return "djit" }

// Read handles rd(t,x): check Wx ⊑ Ct, record Rx[t] := E_t.
func (d *DJIT) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	sx := d.vars.Get(int(x))

	sx.mu.Lock()
	rule := spec.ReadShared // the closest Fig. 2 analogue: a vector update
	if !sx.wvc.Leq(st.vc) {
		prev := firstUnorderedEntry(sx.wvc, st.vc)
		d.sink.add(Report{Rule: spec.WriteReadRace, T: t, X: x, Prev: prev})
		rule = spec.WriteReadRace
	}
	sx.rvc.Set(t, st.e)
	sx.mu.Unlock()
	st.count(rule)
	st.countSlowRead() // DJIT has no epochs, hence no fast path at all
}

// Write handles wr(t,x): check Wx ⊑ Ct and Rx ⊑ Ct, record Wx[t] := E_t.
func (d *DJIT) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	sx := d.vars.Get(int(x))

	sx.mu.Lock()
	rule := spec.WriteShared
	if !sx.wvc.Leq(st.vc) {
		prev := firstUnorderedEntry(sx.wvc, st.vc)
		d.sink.add(Report{Rule: spec.WriteWriteRace, T: t, X: x, Prev: prev})
		rule = spec.WriteWriteRace
	}
	if !sx.rvc.Leq(st.vc) {
		prev := firstUnorderedEntry(sx.rvc, st.vc)
		d.sink.add(Report{Rule: spec.ReadWriteRace, T: t, X: x, Prev: prev})
		if rule == spec.WriteShared {
			rule = spec.ReadWriteRace
		}
	}
	sx.wvc.Set(t, st.e)
	sx.mu.Unlock()
	st.count(rule)
	st.countSlowWrite()
}

// firstUnorderedEntry returns DJIT's race evidence: the first entry of v
// not covered by the accessor's clock.
func firstUnorderedEntry(v, clock *vc.VC) epoch.Epoch {
	for i := 0; i < v.Size(); i++ {
		t := epoch.Tid(i)
		if !clock.EpochLeq(v.Get(t)) {
			return v.Get(t)
		}
	}
	return epoch.Min(0)
}
