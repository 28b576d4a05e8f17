package spec

import (
	"math/rand"
	"testing"

	"repro/internal/epoch"
	"repro/internal/hb"
	"repro/internal/trace"
)

// The §6 invariants hold after every step of every random feasible trace,
// for both rule flavors.
func TestInvariantsHoldAlongRandomTraces(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 80
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Generate(rng, cfg)
		for _, flavor := range []Flavor{VerifiedFT, FastTrackOrig} {
			s := NewState(flavor)
			for i, op := range tr {
				if _, err := s.Step(op); err != nil {
					break // analysis stopped at a race
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d %v after op %d (%v): %v", seed, flavor, i, op, err)
				}
			}
		}
	}
}

// §6: "a VarState object that has entered Shared mode remains in Shared
// mode" — under the VerifiedFT rules. The original FastTrack rules violate
// it by design at [Write Shared]; the test checks both directions.
func TestSharedModeMonotonicity(t *testing.T) {
	// sharedVars returns the ids of the variables in Shared mode.
	sharedVars := func(s *State) map[int]bool {
		out := map[int]bool{}
		for x, sx := range s.vars {
			if sx.R.IsShared() {
				out[int(x)] = true
			}
		}
		return out
	}

	cfg := trace.DefaultGenConfig()
	cfg.Ops = 80
	vftViolations, ftReversions := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Generate(rng, cfg)

		s := NewState(VerifiedFT)
		everShared := map[int]bool{}
		for _, op := range tr {
			if _, err := s.Step(op); err != nil {
				break
			}
			now := sharedVars(s)
			for x := range everShared {
				if !now[x] {
					vftViolations++
				}
			}
			for x := range now {
				everShared[x] = true
			}
		}

		// FastTrackOrig: count reversions to show the flavor difference is
		// real (not asserted per trace; the aggregate must be positive).
		s = NewState(FastTrackOrig)
		wasShared := map[int]bool{}
		for _, op := range tr {
			if _, err := s.Step(op); err != nil {
				break
			}
			now := sharedVars(s)
			for x := range wasShared {
				if !now[x] {
					ftReversions++
				}
			}
			wasShared = now
		}
	}
	if vftViolations != 0 {
		t.Errorf("VerifiedFT left Shared mode %d times; §6 invariant broken", vftViolations)
	}
	if ftReversions == 0 {
		t.Error("FastTrackOrig never reverted Shared mode over 200 traces; the ablation lost its bite")
	}
}

// Hand-built violations are caught: the checker has teeth.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	mk := func() *State {
		s := NewState(VerifiedFT)
		tr := trace.Trace{
			trace.ForkOp(0, 1),
			trace.Rd(0, 0), trace.Rd(1, 0), // share x0
			trace.Wr(0, 1),
		}
		for _, op := range tr {
			if _, err := s.Step(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("clean state flagged: %v", err)
		}
		return s
	}

	s := mk()
	s.Var(1).W = epoch.Shared // W must never be the marker
	if s.CheckInvariants() == nil {
		t.Error("Shared W not caught")
	}

	s = mk()
	s.Var(1).W = epoch.Make(1, 99) // beyond thread 1's clock
	if s.CheckInvariants() == nil {
		t.Error("future W not caught")
	}

	s = mk()
	s.Var(0).V.Set(1, epoch.Make(1, 77)) // read vector beyond clock
	if s.CheckInvariants() == nil {
		t.Error("future read-vector entry not caught")
	}

	s = mk()
	s.Thread(0).Set(1, epoch.Make(1, 50)) // knows thread 1's future
	if s.CheckInvariants() == nil {
		t.Error("future cross-entry not caught")
	}
}

// FuzzPrecision drives byte-derived feasible traces through the precision
// triangle: both specification flavors must error exactly where the
// happens-before oracle's first race completes, and the §6 invariants must
// hold at every intermediate state.
func FuzzPrecision(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 1, 1, 2, 0, 3}) // fork then mixed accesses
	f.Add([]byte{2, 0, 0, 1, 3, 0, 4, 0, 0, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := trace.FromBytes(data)
		want := hb.Analyze(tr).FirstRaceAt()
		for _, flavor := range []Flavor{VerifiedFT, FastTrackOrig} {
			s := NewState(flavor)
			raceAt := -1
			for i, op := range tr {
				if _, err := s.Step(op); err != nil {
					raceAt = i
					break
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%v invariant after op %d: %v", flavor, i, err)
				}
			}
			if raceAt != want {
				t.Fatalf("%v errors at %d, oracle first race at %d\ntrace: %v",
					flavor, raceAt, want, tr)
			}
		}
	})
}
