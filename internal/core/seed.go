package core

import (
	"repro/internal/epoch"
	"repro/internal/trace"
)

// VarSnap is an exact, self-contained copy of one variable's analysis
// state. Shadow-compression layers (internal/arrayshadow) use snapshots to
// expand a compressed array shadow into exact per-element states.
type VarSnap struct {
	W epoch.Epoch
	R epoch.Epoch // epoch.Shared when the read history is a vector
	// Vec is the read vector; meaningful only when R is Shared.
	Vec []epoch.Epoch
}

// VarStater is implemented by detectors whose per-variable state can be
// snapshotted and seeded — the hook shadow-compression layers build on.
type VarStater interface {
	// SnapshotVar returns an exact copy of x's current state.
	SnapshotVar(x trace.Var) VarSnap
	// SeedVar overwrites x's state with a snapshot. The variable must not
	// be under concurrent handler access (the caller serializes, as
	// arrayshadow's compressed mode does).
	SeedVar(x trace.Var, s VarSnap)
}

// SnapshotVar implements VarStater for VerifiedFT-v2.
func (d *V2) SnapshotVar(x trace.Var) VarSnap {
	sx := d.vars.Get(int(x))
	sx.mu.Lock()
	defer sx.mu.Unlock()
	snap := VarSnap{W: sx.loadW(), R: sx.loadR()}
	if snap.R.IsShared() {
		if p := sx.v.Load(); p != nil {
			snap.Vec = append([]epoch.Epoch(nil), *p...)
		}
	}
	return snap
}

// SeedVar implements VarStater for VerifiedFT-v2.
func (d *V2) SeedVar(x trace.Var, s VarSnap) {
	sx := d.vars.Get(int(x))
	sx.mu.Lock()
	defer sx.mu.Unlock()
	sx.w.Store(uint64(s.W))
	if s.R.IsShared() {
		// Publish the vector before the Shared marker, preserving the
		// discipline's ordering for any unlocked fast-path reader.
		vec := append(ReadVec(nil), s.Vec...)
		sx.v.Store(&vec)
	}
	sx.r.Store(uint64(s.R))
}

var _ VarStater = (*V2)(nil)
