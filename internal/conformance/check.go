package conformance

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/spec"
	"repro/internal/trace"
)

// CheckTrace runs the full sequential differential comparison on one
// feasible core-language trace: oracle self-agreement (vector-clock pass vs
// order graph), Theorem 3.1 precision of both specification flavors,
// first-report positions of every detector against the oracle, and
// rule-count agreement with the specification on race-free traces. A nil
// error means the whole stack agrees on tr.
//
// This is the offline half of the conformance story; Explore applies the
// same verdict comparison per controlled schedule. vft-race -all -oracle
// runs it on a trace file, which is how a trace printed by a failing test
// here is replayed.
func CheckTrace(tr trace.Trace) error {
	// Oracle self-agreement.
	vcRaces := hb.Analyze(tr)
	graphRaces := hb.BuildGraph(tr).Races()
	sortPairs(graphRaces)
	got := append([]hb.RacePair(nil), vcRaces.Races...)
	sortPairs(got)
	if !reflect.DeepEqual(got, graphRaces) {
		return fmt.Errorf("oracle algorithms disagree: VC=%v graph=%v", got, graphRaces)
	}
	want := vcRaces.FirstRaceAt()

	// Specification precision, both flavors.
	for _, f := range []spec.Flavor{spec.VerifiedFT, spec.FastTrackOrig} {
		res := spec.Run(f, tr)
		if res.RaceAt != want {
			return fmt.Errorf("%v spec errors at %d, oracle first race at %d", f, res.RaceAt, want)
		}
	}

	// Detector functional correctness.
	specRes := spec.Run(spec.VerifiedFT, tr)
	for _, name := range core.Variants() {
		d, err := core.New(name, core.Config{})
		if err != nil {
			return err
		}
		if got := core.FirstReportPosition(d, tr); got != want {
			return fmt.Errorf("%s first report at %d, oracle at %d", name, got, want)
		}
		// A race-free trace was replayed whole, so the counts are final.
		if want == -1 && d.RuleCounts() != specRes.Rules {
			return fmt.Errorf("%s rule counts diverge from spec:\n got %v\nwant %v",
				name, d.RuleCounts(), specRes.Rules)
		}
	}
	return nil
}

// Shrink delta-minimizes a diverging trace: it repeatedly removes
// operations (largest chunks first) while the result stays feasible and
// still diverges under CheckTrace, so failures arrive at a human-readable
// size in the vft-race text format. A schedule-found divergence minimizes
// the same way as a sequentially-found one, because a controlled run
// serializes the handlers: replaying its recorded linearization reproduces
// the detector behavior exactly.
func Shrink(tr trace.Trace) trace.Trace {
	diverges := func(t trace.Trace) bool {
		return trace.Validate(t) == nil && CheckTrace(t) != nil
	}
	if !diverges(tr) {
		return tr
	}
	cur := append(trace.Trace(nil), tr...)
	for chunk := len(cur) / 2; chunk >= 1; {
		removedAny := false
		for start := 0; start+chunk <= len(cur); start++ {
			cand := append(append(trace.Trace(nil), cur[:start]...), cur[start+chunk:]...)
			if diverges(cand) {
				cur = cand
				removedAny = true
				start-- // the window now holds new content; retry in place
			}
		}
		if !removedAny {
			chunk /= 2
		}
	}
	return cur
}

func sortPairs(ps []hb.RacePair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Second != ps[j].Second {
			return ps[i].Second < ps[j].Second
		}
		return ps[i].First < ps[j].First
	})
}
