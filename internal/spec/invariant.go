package spec

import (
	"fmt"

	"repro/internal/epoch"
)

// CheckInvariants verifies the state invariants the CIVL proof carries at
// every yield point (§6): vector clocks hold appropriate epochs at each
// index (well-formedness — also enforced structurally by the vc package),
// thread clocks never fall below their initial inc_t(⊥V) value, last-access
// epochs are genuine epochs (never the Shared marker in W), and a VarState
// in Shared mode carries a read vector while one in exclusive mode carries
// a plain epoch. It returns the first violation found.
//
// The tests drive random feasible traces through Step and call this after
// every transition; the concurrent detectors are checked against the same
// invariants indirectly, through their state equivalence with this
// specification.
func (s *State) CheckInvariants() error {
	for t, v := range s.threads {
		// Own entry at least t@1: S0 starts threads at inc_t(⊥V) and
		// clocks only grow.
		if own := v.Get(t); own.Clock() < 1 {
			return fmt.Errorf("invariant: thread %d own entry %v below initial", t, own)
		}
		// Cross entries are bounded by the owner's actual clock: no thread
		// may know a future another thread has not reached.
		for i := 0; i < v.Size(); i++ {
			u := epoch.Tid(i)
			if u == t {
				continue
			}
			if uv, ok := s.threads[u]; ok {
				if !uv.EpochLeq(v.Get(u)) {
					return fmt.Errorf("invariant: thread %d knows %v of thread %d, beyond its clock %v",
						t, v.Get(u), u, uv.Get(u))
				}
			}
		}
	}
	for m, v := range s.locks {
		// A lock's clock is a copy of some past thread clock: each entry
		// bounded by that thread's current clock.
		for i := 0; i < v.Size(); i++ {
			u := epoch.Tid(i)
			if uv, ok := s.threads[u]; ok {
				if !uv.EpochLeq(v.Get(u)) {
					return fmt.Errorf("invariant: lock %d entry %v beyond thread %d clock", m, v.Get(u), u)
				}
			}
		}
	}
	for x, sx := range s.vars {
		if sx.W.IsShared() {
			return fmt.Errorf("invariant: var %d W is the Shared marker", x)
		}
		if sx.R.IsShared() {
			if sx.V == nil {
				return fmt.Errorf("invariant: var %d Shared without a read vector", x)
			}
			// Every recorded read epoch is bounded by its thread's clock.
			for i := 0; i < sx.V.Size(); i++ {
				u := epoch.Tid(i)
				if uv, ok := s.threads[u]; ok {
					if !uv.EpochLeq(sx.V.Get(u)) {
						return fmt.Errorf("invariant: var %d read vector entry %v beyond thread %d clock",
							x, sx.V.Get(u), u)
					}
				}
			}
		} else {
			// Exclusive read epoch bounded by its thread's clock.
			if uv, ok := s.threads[sx.R.Tid()]; ok {
				if !uv.EpochLeq(sx.R) {
					return fmt.Errorf("invariant: var %d R=%v beyond thread clock", x, sx.R)
				}
			}
		}
		if uv, ok := s.threads[sx.W.Tid()]; ok {
			if !uv.EpochLeq(sx.W) {
				return fmt.Errorf("invariant: var %d W=%v beyond thread clock", x, sx.W)
			}
		}
	}
	return nil
}
