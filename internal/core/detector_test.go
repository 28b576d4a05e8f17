package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
)

func newDetector(t testing.TB, name string) Detector {
	t.Helper()
	d, err := New(name, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFactory(t *testing.T) {
	for _, name := range Variants() {
		d := newDetector(t, name)
		if d.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, d.Name())
		}
	}
	if _, err := New("nope", Config{}); err == nil {
		t.Error("unknown variant should error")
	}
}

// Every detector, replayed sequentially, must produce its first
// report at exactly the operation where the Fig. 2 specification
// transitions to Error — which the spec tests have already tied to the
// happens-before oracle. This is the functional-correctness check of §6 in
// differential form.
func TestFirstReportMatchesSpec(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 60
	for _, name := range Variants() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := trace.Generate(rng, cfg)
				want := spec.Run(spec.VerifiedFT, tr).RaceAt
				d := newDetector(t, name)
				got := FirstReportPosition(d, tr)
				if got != want {
					t.Fatalf("seed %d: first report at %d, spec Error at %d\nreports: %v\ntrace: %v",
						seed, got, want, d.Reports(), tr)
				}
			}
		})
	}
}

// Racier mix (no locks, more threads) to cover the race rules heavily.
func TestFirstReportMatchesSpecRacy(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 40
	cfg.LockedFraction = 0
	cfg.Threads = 6
	for _, name := range Variants() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := trace.Generate(rng, cfg)
				want := spec.Run(spec.VerifiedFT, tr).RaceAt
				d := newDetector(t, name)
				if got := FirstReportPosition(d, tr); got != want {
					t.Fatalf("seed %d: first report at %d, spec at %d\ntrace: %v", seed, got, want, tr)
				}
			}
		})
	}
}

// On race-free traces, every variant fires exactly the same rules as the
// specification, access for access.
func TestRuleCountsMatchSpecOnRaceFreeTraces(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 80
	cfg.Threads = 3
	cfg.LockedFraction = 900 // bias toward race-free traces
	checked := 0
	for seed := int64(0); seed < 200 && checked < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Generate(rng, cfg)
		res := spec.Run(spec.VerifiedFT, tr)
		if res.RaceAt != -1 {
			continue // rule counts are compared on race-free traces only
		}
		checked++
		for _, name := range Variants() {
			d := newDetector(t, name)
			Replay(d, tr)
			got := d.RuleCounts()
			if got != res.Rules {
				t.Fatalf("seed %d %s: rule counts diverge\n got: %v\nwant: %v\ntrace: %v",
					seed, name, got, res.Rules, tr)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d race-free traces checked; generator mix too racy", checked)
	}
}

// sortReports orders reports by (X, Rule, T) for set comparison.
func sortReports(rs []Report) {
	slices.SortFunc(rs, func(a, b Report) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Rule, b.Rule), cmp.Compare(a.T, b.T))
	})
}

// The detectors keep checking after a race (§7): two independently racy
// variables yield two reports.
func TestDetectorsContinueAfterRace(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0), trace.Wr(1, 0), // race on x0
		trace.Wr(0, 1), trace.Wr(1, 1), // race on x1
	}
	for _, name := range Variants() {
		d := newDetector(t, name)
		reports := Replay(d, tr)
		if len(reports) != 2 {
			t.Fatalf("%s: %d reports, want 2: %v", name, len(reports), reports)
		}
		sortReports(reports)
		if reports[0].X != 0 || reports[1].X != 1 {
			t.Errorf("%s: reports on wrong variables: %v", name, reports)
		}
	}
}

func TestReportEvidence(t *testing.T) {
	// Thread 0 writes x at epoch 0@1; thread 1's read races with it.
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 3),
		trace.Rd(1, 3),
	}
	for _, name := range Variants() {
		d := newDetector(t, name)
		reports := Replay(d, tr)
		if len(reports) != 1 {
			t.Fatalf("%s: reports = %v", name, reports)
		}
		r := reports[0]
		if r.Rule != spec.WriteReadRace || r.T != 1 || r.X != 3 {
			t.Errorf("%s: report fields wrong: %+v", name, r)
		}
		// The write happened in thread 0's epoch after the fork increment
		// bumped it? No: the write precedes nothing — fork(0,1) increments
		// thread 0's clock to 2, so the write's epoch is 0@2.
		if r.Prev != epoch.Make(0, 2) {
			t.Errorf("%s: evidence = %v, want 0@2", name, r.Prev)
		}
		if r.Detector != name || r.Seq != 0 {
			t.Errorf("%s: metadata wrong: %+v", name, r)
		}
	}
}

// Two race-free programs ordered only by a fork/join edge, or only by
// locks shared pairwise with no lock common to every writer: a precise
// detector must accept both, and every variant is precise.
func TestVariantsAcceptOrderedPrograms(t *testing.T) {
	// section is one write of x by thread t holding locks m and n.
	section := func(t epoch.Tid, m, n trace.Lock) trace.Trace {
		return trace.Trace{trace.Acq(t, m), trace.Acq(t, n), trace.Wr(t, 0), trace.Rel(t, n), trace.Rel(t, m)}
	}
	for name, tr := range map[string]trace.Trace{
		"fork/join": {
			trace.ForkOp(0, 1),
			trace.Wr(1, 0),
			trace.JoinOp(0, 1),
			trace.Wr(0, 0),
		},
		// Three threads guard x with {m0,m1}, {m1,m2} and {m0,m2}: every
		// pair shares a lock, so all writes are ordered.
		"pairwise locks": slices.Concat(
			trace.Trace{trace.ForkOp(0, 1), trace.ForkOp(0, 2)},
			section(1, 0, 1), section(2, 1, 2), section(0, 0, 2), section(1, 0, 1),
		),
	} {
		for _, variant := range Variants() {
			if reports := Replay(newDetector(t, variant), tr); len(reports) != 0 {
				t.Errorf("%s/%s: race-free program reported: %v", name, variant, reports)
			}
		}
	}
}

// The repair action after a write-write race installs the racing write's
// epoch, so a *subsequent* ordered write does not re-report.
func TestRepairAfterRaceSuppressesEcho(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0),
		trace.Wr(1, 0),     // race, repaired to W = 1@...
		trace.Wr(1, 0),     // same epoch: no new report
		trace.JoinOp(0, 1), //
		trace.Wr(0, 0),     // ordered after the repair: no new report
	}
	for _, name := range Variants() {
		d := newDetector(t, name)
		reports := Replay(d, tr)
		if len(reports) != 1 {
			t.Fatalf("%s: %d reports, want exactly 1: %v", name, len(reports), reports)
		}
	}
}

func TestReadSharedSameEpochCountsDifferOnlyInSpeed(t *testing.T) {
	// Shared variable read twice in the same epoch by the same thread:
	// every variant classifies the second read as [Read Shared Same Epoch]
	// regardless of whether that case is lock-free (v2) or locked (v1,
	// v1.5, baselines).
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Rd(0, 0),
		trace.Rd(1, 0), // Share transition
		trace.Rd(1, 0), // shared same epoch
		trace.Rd(1, 0),
	}
	for _, name := range Variants() {
		d := newDetector(t, name)
		Replay(d, tr)
		counts := d.RuleCounts()
		if counts[spec.ReadSharedSameEpoch] != 2 {
			t.Errorf("%s: ReadSharedSameEpoch fired %d times, want 2",
				name, counts[spec.ReadSharedSameEpoch])
		}
		if counts[spec.ReadShare] != 1 {
			t.Errorf("%s: ReadShare fired %d times, want 1", name, counts[spec.ReadShare])
		}
	}
}

func TestDispatchPanicsOnExtendedOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Dispatch(newDetector(t, "vft-v2"), trace.VRd(0, 0))
}

// MaxReportsPerVar caps per-variable reporting (RoadRunner's warn-once
// behaviour) while counting what it suppressed.
func TestMaxReportsPerVar(t *testing.T) {
	cfg := Config{}
	cfg.MaxReportsPerVar = 1
	d := NewV2(cfg)
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0), trace.Wr(1, 0), // race 1 on x0
		trace.Wr(0, 1), trace.Wr(1, 1), // race on x1 (still reported)
	}
	// Extend with more unordered accesses to x0 that would re-report:
	// thread 1 writes again in a fresh epoch, still unordered with 0.
	tr = append(tr,
		trace.Acq(1, 0), trace.Rel(1, 0),
		trace.Wr(0, 0), // unordered with 1's writes: would report again
	)
	Replay(d, tr)
	reports := d.Reports()
	perVar := map[trace.Var]int{}
	for _, r := range reports {
		perVar[r.X]++
	}
	if perVar[0] != 1 || perVar[1] != 1 {
		t.Fatalf("per-var counts %v, want 1 each", perVar)
	}
	if d.Stats().Counters["reports.dropped"] == 0 {
		t.Fatal("suppressed reports not counted")
	}

	// Unlimited by default: the same trace yields more reports on x0.
	d2 := NewV2(Config{})
	Replay(d2, tr)
	perVar2 := map[trace.Var]int{}
	for _, r := range d2.Reports() {
		perVar2[r.X]++
	}
	if perVar2[0] <= 1 {
		t.Fatalf("uncapped detector reported %d on x0, want > 1", perVar2[0])
	}
}
