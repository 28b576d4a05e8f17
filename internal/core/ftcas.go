package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Epoch32 is the compact epoch of the historical Java FastTrack artifact:
// 8 bits of thread id and 24 bits of clock bit-packed into 32 bits, with
// all-ones as the SHARED marker (§4). FT-CAS packs the R and W epochs of a
// variable into a single 64-bit word so both can be read and updated with
// one atomic operation.
type Epoch32 uint32

const (
	// Shared32 is the 32-bit SHARED marker.
	Shared32 Epoch32 = 1<<32 - 1
	// MaxTid32 and MaxClock32 bound the packed representation.
	MaxTid32   = 1<<8 - 2
	MaxClock32 = 1<<24 - 1
)

// MaxTid returns the largest thread id the named variant's epoch format
// holds: MaxTid32 for ft-cas, epoch.MaxTid for every other name. The trace
// validator is given it as its ceiling, which makes a variant's format
// limit an input error on every checking path.
func MaxTid(variant string) epoch.Tid {
	if variant == "ft-cas" {
		return MaxTid32
	}
	return epoch.MaxTid
}

// Pack32 converts a 64-bit epoch into the packed 32-bit form. It panics if
// the epoch does not fit: FT-CAS inherits the historical format's limits of
// 254 threads and 2^24 clock ticks per thread.
func Pack32(e epoch.Epoch) Epoch32 {
	t, c := e.Tid(), e.Clock()
	if uint64(t) > MaxTid32 || c > MaxClock32 {
		panic(fmt.Sprintf("ftcas: epoch %v exceeds the 32-bit format", e))
	}
	return Epoch32(uint32(t)<<24 | uint32(c))
}

// Unpack32 converts back to the 64-bit epoch form. It must not be called on
// Shared32.
func Unpack32(e Epoch32) epoch.Epoch {
	return epoch.Make(epoch.Tid(e>>24), uint64(e&MaxClock32))
}

// packRW packs the pair (R, W) into one word, R in the high half.
func packRW(r, w Epoch32) uint64 { return uint64(r)<<32 | uint64(w) }

// unpackRW splits a packed word into (R, W).
func unpackRW(rw uint64) (r, w Epoch32) { return Epoch32(rw >> 32), Epoch32(rw) }

// casVarState is FT-CAS's per-variable shadow: one atomic word carrying
// both epochs, plus the mutex-protected read vector for the Shared case
// ("the lock sx is still used for the vector clock"). Unlike
// atomicVarState's, the vector never needs unlocked readers (FT-CAS has no
// lock-free shared fast path), so it is a plain field guarded by mu.
type casVarState struct {
	rw atomic.Uint64 // packed (R, W); zero value is (0@0, 0@0)
	mu sync.Mutex
	v  ReadVec
}

func newCASVarState(int) *casVarState { return &casVarState{} }

// FTCAS reproduces the FT-CAS baseline distributed with RoadRunner 0.4
// (§4): R and W live in a single atomically-accessed 64-bit word, the
// same-epoch and exclusive cases run lock-free with CAS retry loops, and
// anything touching the read vector falls back to the per-variable lock.
// As with FT-Mutex, the analysis rules are the VerifiedFT rules so all
// precise detectors are verdict-equivalent (§8 notes the rule change does
// not alter FT-CAS performance meaningfully).
type FTCAS struct {
	syncBase
	vars *shadow.Table[casVarState]
}

// NewFTCAS returns an FT-CAS detector.
func NewFTCAS(cfg Config) *FTCAS {
	return &FTCAS{
		// The historical implementations use the original [Join] rule.
		syncBase: newSyncBase("ft-cas", cfg, true),
		vars:     shadow.NewTable(cfg.Vars, newCASVarState),
	}
}

// Name implements Detector.
func (d *FTCAS) Name() string { return "ft-cas" }

// Read handles rd(t,x). Fast paths ([Read Same Epoch], [Read Exclusive])
// are single-CAS lock-free; Share transitions and Shared bookkeeping take
// the lock, validating the packed word before committing. Reports are
// sunk only once the update has committed, so a retry never repeats one.
func (d *FTCAS) Read(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e32 := Pack32(st.e)
	sx := d.vars.Get(int(x))

	for {
		rw := sx.rw.Load()
		r, w := unpackRW(rw)
		if r == e32 {
			st.count(spec.ReadSameEpoch) // lock-free
			return
		}

		var rule spec.Rule
		var upd Update
		var race Evidence
		if r != Shared32 {
			rule, upd, race = StepRead(Unpack32(r), Unpack32(w), 0, st.e, st.vc.View(), true)
			if upd == SetR {
				// [Read Exclusive]: one CAS swings R; W rides along
				// unchanged, which is why the pair shares a word.
				if sx.rw.CompareAndSwap(rw, packRW(e32, w)) {
					d.sink.addRace(race, t, x)
					st.count(rule)
					return
				}
				st.countRetry()
				continue // interference: retry from the top
			}
		}

		// [Read Share] and the Shared cases touch the read vector: take
		// the lock and validate the word. A [Read Share] decision made
		// above stands for the validated word (it read nothing else); the
		// Shared cases are decided here, on the vector entry the lock
		// guards.
		sx.mu.Lock()
		if sx.rw.Load() != rw {
			sx.mu.Unlock()
			st.countRetry()
			continue
		}
		if r == Shared32 {
			rule, upd, race = StepRead(epoch.Shared, Unpack32(w), sx.v.Get(t), st.e, st.vc.View(), true)
		}
		switch upd {
		case Share:
			prev := Unpack32(r)
			sx.v = sx.v.Set(prev.Tid(), prev).Set(t, st.e)
			// Lock-free CASers do not take the lock, so the word can
			// still move under us: publish Shared with a CAS and retry
			// on interference.
			if !sx.rw.CompareAndSwap(rw, packRW(Shared32, w)) {
				sx.mu.Unlock()
				st.countRetry()
				continue
			}
		case SetOwn:
			sx.v = sx.v.Set(t, st.e)
		}
		sx.mu.Unlock()
		d.sink.addRace(race, t, x)
		st.count(rule)
		st.countSlowRead()
		return
	}
}

// Write handles wr(t,x); [Write Same Epoch] and [Write Exclusive] are
// lock-free, [Write Shared] validates under the lock. Past the same-epoch
// exit the kernel's update is always SetW, applied as a CAS on the word.
func (d *FTCAS) Write(t epoch.Tid, x trace.Var) {
	st := d.thread(t)
	e32 := Pack32(st.e)
	sx := d.vars.Get(int(x))

	for {
		rw := sx.rw.Load()
		r, w := unpackRW(rw)
		if w == e32 {
			st.count(spec.WriteSameEpoch) // lock-free
			return
		}

		if r != Shared32 {
			// [Write Exclusive] (or post-race repair): CAS W.
			rule, _, race, race2 := StepWrite(Unpack32(r), Unpack32(w), st.e, nil, st.vc.View())
			if sx.rw.CompareAndSwap(rw, packRW(r, e32)) {
				d.sink.addRace(race, t, x)
				d.sink.addRace(race2, t, x)
				st.count(rule)
				return
			}
			st.countRetry()
			continue
		}

		// [Write Shared]: full vector comparison under the lock.
		sx.mu.Lock()
		if sx.rw.Load() != rw {
			sx.mu.Unlock()
			st.countRetry()
			continue
		}
		rule, _, race, race2 := StepWrite(epoch.Shared, Unpack32(w), st.e, sx.v, st.vc.View())
		if !sx.rw.CompareAndSwap(rw, packRW(r, e32)) {
			sx.mu.Unlock()
			st.countRetry()
			continue
		}
		sx.mu.Unlock()
		d.sink.addRace(race, t, x)
		d.sink.addRace(race2, t, x)
		st.count(rule)
		st.countSlowWrite()
		return
	}
}
