package kernel

import (
	"repro/internal/epoch"
	"repro/internal/spec"
)

// This file is the Fig. 2 access-rule kernel: the one transcription of the
// read and write rules outside the references (internal/spec,
// internal/reduction). StepRead and StepWrite are pure functions of the
// variable's shadow fields and the acting thread's epoch and clock; they
// decide which rule fires, which races to report and which single state
// update to apply, and touch no memory of their own. Every implementation
// — v1, the v1.5/v2 slow path, FT-Mutex and FT-CAS — is "load my
// representation, call the kernel, sink the reports, apply the update
// under my synchronization discipline".
//
// The file uses only internal/epoch and internal/spec (for the Rule
// names): it depends on no clock type, shadow table or lock.

// ClockView is the acting thread's vector clock C_t as the raw entries of
// its representation (vc.VC.View): entry i belongs to
// thread i and entries beyond the slice are minimal. The rules ask it one
// question, e ⪯ C_t, and a slice keeps the answer free of calls.
type ClockView []epoch.Epoch

// covers reports e ⪯ C_t. Entries are well-formed (entry i carries tid i),
// so the raw comparison is the clock comparison.
func (c ClockView) covers(e epoch.Epoch) bool {
	if t := e.Tid(); int(t) < len(c) {
		return e <= c[t]
	}
	return e.Clock() == 0
}

// Update is the state change a fired rule asks its caller to apply.
type Update uint8

const (
	// NoUpdate: a same-epoch rule fired; the shadow state is unchanged.
	NoUpdate Update = iota
	// SetR is [Read Exclusive]: Sx.R := E_t.
	SetR
	// Share is [Read Share]: Sx.V[tid(R)] := Sx.R, then Sx.V[t] := E_t,
	// and only then Sx.R := Shared — the publication order the lock-free
	// [Read Shared Same Epoch] block of Fig. 4 relies on.
	Share
	// SetOwn is [Read Shared]: Sx.V[t] := E_t.
	SetOwn
	// SetW is [Write Exclusive] / [Write Shared]: Sx.W := E_t.
	SetW
)

// Evidence is one race to report: the race rule and the unordered prior
// access. Rule == spec.RuleNone means no race.
type Evidence struct {
	Rule spec.Rule
	Prev epoch.Epoch
}

// Both step functions return the rule to count — the first race rule that
// fired, else the race-free Fig. 2 rule — the update to apply, and the
// races to report in emission order. The handlers never stop at the first
// race (§7): a race rule reports, and the update still repairs the state
// as if the access had been race-free. The results are separate values on
// purpose: gathered into one struct they exceed what the compiler keeps in
// registers, which cost the slow paths a third (EXPERIMENTS.md E23).

// StepRead applies the read rules of Fig. 2 to rd(t,x): r and w are Sx.R
// and Sx.W, own is Sx.V[t] (read only when r is Shared), e is E_t and c is
// C_t. priorRead selects the historical FT-Mutex/FT-CAS ordering, which
// runs the [Write-Read Race] check in every case past [Read Same Epoch] —
// including [Read Shared Same Epoch] — where the VerifiedFT handlers
// return from the shared same-epoch case before any race check.
func StepRead(r, w, own, e epoch.Epoch, c ClockView, priorRead bool) (rule spec.Rule, upd Update, race Evidence) {
	if r == e {
		return spec.ReadSameEpoch, NoUpdate, race
	}
	sameShared := r.IsShared() && own == e
	if sameShared && !priorRead {
		return spec.ReadSharedSameEpoch, NoUpdate, race
	}
	if !c.covers(w) {
		race = Evidence{Rule: spec.WriteReadRace, Prev: w}
	}
	switch {
	case sameShared:
		rule = spec.ReadSharedSameEpoch
	case r.IsShared():
		rule, upd = spec.ReadShared, SetOwn
	case c.covers(r):
		rule, upd = spec.ReadExclusive, SetR
	default:
		rule, upd = spec.ReadShare, Share
	}
	if race.Rule != spec.RuleNone {
		rule = race.Rule
	}
	return rule, upd, race
}

// StepWrite applies the write rules of Fig. 2 to wr(t,x): r and w are Sx.R
// and Sx.W, v is Sx.V (read only when r is Shared), e is E_t and c is C_t.
// race is [Write-Write Race]; race2 is [Read-Write Race] or [Shared-Write
// Race], whose evidence is the first vector entry not covered by c.
func StepWrite(r, w, e epoch.Epoch, v ReadVec, c ClockView) (rule spec.Rule, upd Update, race, race2 Evidence) {
	if w == e {
		return spec.WriteSameEpoch, NoUpdate, race, race2
	}
	if !c.covers(w) {
		race = Evidence{Rule: spec.WriteWriteRace, Prev: w}
	}
	rule = spec.WriteExclusive
	if r.IsShared() {
		rule = spec.WriteShared
		for _, re := range v {
			if !c.covers(re) {
				race2 = Evidence{Rule: spec.SharedWriteRace, Prev: re}
				break
			}
		}
	} else if !c.covers(r) {
		race2 = Evidence{Rule: spec.ReadWriteRace, Prev: r}
	}
	if race.Rule != spec.RuleNone {
		rule = race.Rule
	} else if race2.Rule != spec.RuleNone {
		rule = race2.Rule
	}
	return rule, SetW, race, race2
}

// ReadVec is the raw representation of a read vector Sx.V: entry i belongs
// to thread i, and entries beyond the slice read as minimal, as Fig. 3's
// VectorClock.get does.
type ReadVec []epoch.Epoch

// Get returns Sx.V[t].
func (v ReadVec) Get(t epoch.Tid) epoch.Epoch {
	if int(t) < len(v) {
		return v[t]
	}
	return epoch.Min(t)
}

// Set records Sx.V[t] := e and returns the vector. An in-range entry is
// written in place; growth (Fig. 3's ensureCapacity) copies into a fresh,
// minimal-filled array and never extends the old one, so a caller that
// publishes vectors to unlocked readers can republish on a length change.
func (v ReadVec) Set(t epoch.Tid, e epoch.Epoch) ReadVec {
	if int(t) >= len(v) {
		n := 2 * len(v)
		if n <= int(t) {
			n = int(t) + 1
		}
		grown := make(ReadVec, n)
		copy(grown, v)
		epoch.FillMin(grown, 0, len(v))
		v = grown
	}
	v[t] = e
	return v
}
