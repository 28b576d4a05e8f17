//go:build vftmc

package reduction

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/spec"
)

func init() { taggedBuild = true }

// TestExplore is the §6 theorem on the real VerifiedFT handlers, over
// bounded state. Per variant, each check is its own subtest:
//
//   - serializable: every interleaving of every scenario's accesses ends in
//     the outcome of some serial order, and no action breaks the discipline;
//   - reducible: every recorded action sequence reduces to (B|R)*[N](B|L)*;
//   - spec: every serial order agrees with the Fig. 2 specification;
//   - coverage: the 96 scenarios fire all 12 access rules as outcomes.
func TestExplore(t *testing.T) {
	for _, variant := range []string{"vft-v1", "vft-v1.5", "vft-v2"} {
		t.Run(variant, func(t *testing.T) {
			start := time.Now()
			states, threeThread := 0, 0
			rules := map[spec.Rule]bool{}
			paths := map[string]Path{}
			var exploreErr error
			for _, sc := range Scenarios() {
				res, err := Explore(variant, sc)
				if err != nil {
					exploreErr = err
					break
				}
				states += res.States
				if len(sc.Writes) == 3 {
					threeThread++
				}
				for r := range res.Rules {
					rules[r] = true
				}
				for _, p := range res.Paths {
					paths[p.String()] = p
				}
			}
			t.Run("serializable", func(t *testing.T) {
				if exploreErr != nil {
					t.Fatal(exploreErr)
				}
				t.Logf("%s: %d distinct states over %d scenarios, %d distinct paths, %v",
					variant, states, len(Scenarios()), len(paths), time.Since(start).Round(time.Millisecond))
			})
			t.Run("reducible", func(t *testing.T) {
				if exploreErr != nil {
					t.Fatal("exploration stopped early: ", exploreErr)
				}
				for _, p := range paths {
					if res := Reducible(p); !res.OK {
						t.Errorf("irreducible: %v — %s", p, res.Reason)
					}
				}
			})
			t.Run("spec", func(t *testing.T) {
				for _, sc := range Scenarios() {
					if err := CheckSpec(variant, sc); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Run("coverage", func(t *testing.T) {
				if exploreErr != nil {
					t.Fatal("exploration stopped early: ", exploreErr)
				}
				if n := len(Scenarios()); n != 96 || threeThread != 24 {
					t.Fatalf("%d scenarios, %d with three threads", n, threeThread)
				}
				for r := spec.ReadSameEpoch; r <= spec.SharedWriteRace; r++ {
					if !rules[r] {
						t.Errorf("no interleaving fired %v", r)
					}
				}
			})
		})
	}
}

// TestExploreFTMutex: FT-Mutex's optimistic handlers are serializable
// too. Only serializability is checked: its serial rules differ from the
// specification's (priorRead), and its retry loop re-acquires the lock
// after releasing it, which no reduction pattern admits.
func TestExploreFTMutex(t *testing.T) {
	states := 0
	for _, sc := range Scenarios() {
		res, err := Explore("ft-mutex", sc)
		if err != nil {
			t.Fatal(err)
		}
		states += res.States
	}
	t.Logf("ft-mutex: %d distinct states over %d scenarios", states, len(Scenarios()))
}

// TestExploreDroppedLock: with the slow-path lock of the optimized
// VarState dropped, v2's handlers are no longer serializable, and the
// explorer must say so.
func TestExploreDroppedLock(t *testing.T) {
	core.MCDropLock = true
	defer func() { core.MCDropLock = false }()
	for _, sc := range Scenarios() {
		if _, err := Explore("vft-v2", sc); err != nil {
			if !strings.Contains(err.Error(), "non-serializable") {
				t.Fatalf("want a non-serializable outcome, got: %v", err)
			}
			t.Logf("caught: %v", err)
			return
		}
	}
	t.Fatal("v2 without its lock passed every scenario")
}

// Scenarios enumerates the explored configurations: every pair of
// accesses over initial states covering the analysis's case space (fresh
// variable, same-epoch hits, exclusive reads by either thread, shared
// vectors ordered and unordered, racy last writes), under concurrent and
// ordered clocks, plus three-thread configurations where the extra
// concurrency could expose non-serializable interleavings a pair cannot
// (e.g. a reader on the shared fast path racing a Share transition racing
// a writer, or a vector growth under a fast-path reader).
func Scenarios() []Scenario {
	e := func(t epoch.Tid, c uint64) epoch.Epoch { return epoch.Make(t, c) }
	vec := func(es ...epoch.Epoch) *core.ReadVec { v := core.ReadVec(es); return &v }
	// Two concurrent threads: 0 at <5,3>, 1 at <2,7> (each knows a stale
	// portion of the other), plus an ordered pair where 1 has absorbed 0.
	concurrent := [][]epoch.Epoch{{e(0, 5), e(1, 3)}, {e(0, 2), e(1, 7)}}
	ordered := [][]epoch.Epoch{{e(0, 5), e(1, 3)}, {e(0, 5), e(1, 7)}}

	vars := []struct {
		name string
		v    core.MCVar
	}{
		{"fresh", core.MCVar{R: e(0, 0), W: e(0, 0)}},
		{"read-by-0-current", core.MCVar{R: e(0, 5), W: e(0, 0)}},
		{"read-by-0-old", core.MCVar{R: e(0, 2), W: e(0, 2)}},
		{"read-by-1-stale", core.MCVar{R: e(1, 5), W: e(0, 0)}},
		{"written-by-0-current", core.MCVar{R: e(0, 0), W: e(0, 5)}},
		{"written-by-1-racy", core.MCVar{R: e(0, 0), W: e(1, 5)}},
		{"shared-ordered", core.MCVar{R: epoch.Shared, W: e(0, 1), V: vec(e(0, 2), e(1, 3))}},
		{"shared-own-current", core.MCVar{R: epoch.Shared, W: e(0, 1), V: vec(e(0, 5), e(1, 7))}},
		{"shared-unordered", core.MCVar{R: epoch.Shared, W: e(0, 1), V: vec(e(0, 4), e(1, 6))}},
	}
	pairs := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}

	var out []Scenario
	for _, v := range vars {
		for _, p := range pairs {
			for ci, clocks := range [][][]epoch.Epoch{concurrent, ordered} {
				out = append(out, Scenario{
					Name:   fmt.Sprintf("%s/%s/clocks%d", v.name, progs(p), ci),
					Var:    v.v,
					Writes: p,
					Clocks: clocks,
				})
			}
		}
	}

	// Three pairwise-concurrent threads over the case space of access
	// triples.
	threeClocks := [][]epoch.Epoch{
		{e(0, 5), e(1, 3), e(2, 2)},
		{e(0, 2), e(1, 7), e(2, 2)},
		{e(0, 2), e(1, 3), e(2, 9)},
	}
	triples := [][]bool{
		{false, false, false},
		{false, false, true},
		{false, true, false},
		{true, false, false},
		{false, true, true},
		{true, true, true},
	}
	threeVars := []struct {
		name string
		v    core.MCVar
	}{
		{"fresh3", core.MCVar{R: e(0, 0), W: e(0, 0)}},
		{"excl-read-3", core.MCVar{R: e(2, 1), W: e(2, 1)}},
		{"shared3", core.MCVar{R: epoch.Shared, W: e(0, 1), V: vec(e(0, 2), e(1, 3), e(2, 2))}},
		{"shared3-own", core.MCVar{R: epoch.Shared, W: e(0, 1), V: vec(e(0, 5), e(1, 7), e(2, 9))}},
	}
	for _, v := range threeVars {
		for _, p := range triples {
			out = append(out, Scenario{
				Name:   fmt.Sprintf("%s/%s", v.name, progs(p)),
				Var:    v.v,
				Writes: p,
				Clocks: threeClocks,
			})
		}
	}
	return out
}

// progs renders a scenario's accesses, e.g. "read-write".
func progs(writes []bool) string {
	s := ""
	for i, w := range writes {
		if i > 0 {
			s += "-"
		}
		if w {
			s += "write"
		} else {
			s += "read"
		}
	}
	return s
}
