package parcheck

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// bareReplay replays the lowered trace through a bare core.New detector —
// the reference the offline check path must reproduce exactly.
func bareReplay(t testing.TB, tr trace.Trace, variant string, maxPerVar int) []core.Report {
	t.Helper()
	return bareDetector(t, tr, variant, maxPerVar).Reports()
}

// bareDetector is bareReplay's detector after the replay, for its counters.
func bareDetector(t testing.TB, tr trace.Trace, variant string, maxPerVar int) core.Detector {
	t.Helper()
	d, err := core.New(variant, core.Config{MaxReportsPerVar: maxPerVar})
	if err != nil {
		t.Fatalf("core.New(%q): %v", variant, err)
	}
	src := trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
	for {
		op, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reference stream: %v", err)
		}
		core.Dispatch(d, op)
	}
	return d
}

// analysisCounters are the counters of s that follow the analysis alone,
// not table occupancy or clock growth: what any two engines must agree on.
func analysisCounters(s obs.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	for key, n := range s.Counters {
		for _, prefix := range []string{"rule.", "reads.", "writes.", "reports."} {
			if strings.HasPrefix(key, prefix) {
				out[key] = n
			}
		}
	}
	return out
}

// requireEqualAnalysisCounters holds got's analysis counters, names and
// values, to the bare detector's.
func requireEqualAnalysisCounters(t testing.TB, bare core.Detector, got obs.Snapshot, variant string) {
	t.Helper()
	want := analysisCounters(bare.(core.StatsSource).Stats())
	if have := analysisCounters(got); !reflect.DeepEqual(want, have) {
		t.Fatalf("%s: analysis counters diverged from the reference:\nreference: %v\noffline:   %v", variant, want, have)
	}
}

// offline checks tr through both entry points of the offline path: Check
// over the separately validated and lowered stream, and CheckTrace, which
// validates and lowers inline. The two must agree op for op, so every
// equivalence site checks both.
func offline(t testing.TB, tr trace.Trace, variant string, maxPerVar int) []core.Report {
	t.Helper()
	got, _ := offlineStats(t, tr, variant, maxPerVar)
	return got
}

// offlineStats is offline with the snapshot CheckTrace's sink received.
func offlineStats(t testing.TB, tr trace.Trace, variant string, maxPerVar int) ([]core.Report, obs.Snapshot) {
	t.Helper()
	src := trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
	got, err := Check(src, Options{Variant: variant, MaxReportsPerVar: maxPerVar})
	if err != nil {
		t.Fatalf("Check (%q): %v", variant, err)
	}
	var snap obs.Snapshot
	fused, err := CheckTrace(tr, nil, Options{Variant: variant, MaxReportsPerVar: maxPerVar,
		StatsSink: func(s obs.Snapshot) { snap = s }})
	if err != nil {
		t.Fatalf("CheckTrace (%q): %v", variant, err)
	}
	if !reflect.DeepEqual(got, fused) {
		t.Fatalf("%s: CheckTrace diverged from Check:\nstreaming (%d): %+v\nfused     (%d): %+v",
			variant, len(got), got, len(fused), fused)
	}
	return got, snap
}

func requireEqualReports(t testing.TB, want, got []core.Report, variant string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s diverged from the reference:\nreference (%d): %+v\noffline   (%d): %+v",
			variant, len(want), want, len(got), got)
	}
}

// TestParallelEquivalenceGenerated: for every detector variant, the
// offline check's report list equals the bare replay's — same reports,
// same order, same Seq — across generated feasible traces and report caps.
func TestParallelEquivalenceGenerated(t *testing.T) {
	cfgs := []trace.GenConfig{
		trace.DefaultGenConfig(),
		{Ops: 200, Threads: 8, Vars: 2, Locks: 1, ReadWeight: 4, WriteWeight: 4,
			AcquireWeight: 2, ForkWeight: 2, JoinWeight: 2, LockedFraction: 200},
		{Ops: 300, Threads: 3, Vars: 32, Locks: 4, ReadWeight: 5, WriteWeight: 5,
			AcquireWeight: 3, ForkWeight: 1, JoinWeight: 1, LockedFraction: 800},
	}
	for _, variant := range core.Variants() {
		t.Run(variant, func(t *testing.T) {
			for ci, cfg := range cfgs {
				for seed := int64(0); seed < 12; seed++ {
					tr := trace.Generate(rand.New(rand.NewSource(seed+int64(ci)*100)), cfg)
					for _, cap := range []int{0, 1} {
						requireEqualReports(t, bareReplay(t, tr, variant, cap), offline(t, tr, variant, cap), variant)
					}
				}
			}
		})
	}
}

// TestParallelEquivalenceExtendedOps runs the lowering pipeline over
// volatiles and barriers: the pseudo-lock acquire/release pairs they lower
// to must reach the detector behind the front stage exactly as they reach a
// bare one.
func TestParallelEquivalenceExtendedOps(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.ForkOp(0, 2),
		trace.Wr(0, 0),
		trace.VWr(0, 9),
		trace.VRd(1, 9),
		trace.Rd(1, 0), // ordered by the volatile: no race
		trace.BarrierOp(0, 5),
		trace.BarrierOp(1, 5),
		trace.Wr(2, 1), // not at the barrier: races with t0 below
		trace.Wr(0, 1),
		trace.JoinOp(0, 1),
		trace.JoinOp(0, 2),
	}
	for _, variant := range core.Variants() {
		requireEqualReports(t, bareReplay(t, tr, variant, 0), offline(t, tr, variant, 0), variant)
	}
}

// TestParallelEmptyTrace: no races means an empty, non-nil report list.
func TestParallelEmptyTrace(t *testing.T) {
	got, err := Check(trace.Trace{}.Source(), Options{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("want empty non-nil report list, got %#v", got)
	}
}

// TestParallelStreamError: a mid-stream feasibility error surfaces and all
// reports from the consumed prefix are discarded, matching CheckSource.
func TestParallelStreamError(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0),
		trace.Wr(1, 0), // a race the discard must swallow
		trace.Acq(0, 0),
		trace.Acq(1, 0), // infeasible: lock already held
	}
	src := trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
	got, err := Check(src, Options{})
	if err == nil {
		t.Fatal("want feasibility error, got nil")
	}
	if got != nil {
		t.Fatalf("want nil reports on error, got %+v", got)
	}
}

// TestFusedInfeasibleErrorParity: the fused path's inline validation must
// produce the identical *InfeasibleError — same index, op, rule, message —
// the ValidateSource stage would have.
func TestFusedInfeasibleErrorParity(t *testing.T) {
	infeasible := []trace.Trace{
		{trace.Acq(0, 0), trace.Acq(0, 0)},                   // re-acquire
		{trace.Rel(0, 3)},                                    // release unheld
		{trace.Wr(1, 0)},                                     // act before fork
		{trace.ForkOp(0, 1), trace.JoinOp(0, 1)},             // no op between fork/join
		{trace.ForkOp(0, 1), trace.ForkOp(0, 1)},             // double fork
		{trace.VWr(0, 5), trace.Wr(2, 0)},                    // error past an extended op
		{trace.BarrierOp(0, 1), trace.Acq(0, 1<<30)},         // lock id out of range
		{trace.ForkOp(0, 1), trace.Wr(1, 0), trace.Wr(2, 1)}, // unforked thread acting
		{trace.ForkOp(0, 70000), trace.Wr(70000, 1)},         // tid beyond epoch.MaxTid (*TidRangeError)
	}
	for i, tr := range infeasible {
		src := trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
		_, wantErr := Check(src, Options{})
		if wantErr == nil {
			t.Fatalf("case %d: streaming path accepted an infeasible trace", i)
		}
		_, gotErr := CheckTrace(tr, nil, Options{})
		if !reflect.DeepEqual(wantErr, gotErr) {
			t.Errorf("case %d: error diverged:\nstreaming: %v\nfused:     %v", i, wantErr, gotErr)
		}
	}
}

// TestFusedBarrierParties: a non-default participant count must group
// barrier rounds in the fused lowering exactly as DesugarSource does.
func TestFusedBarrierParties(t *testing.T) {
	ext := &trace.Extensions{BarrierParties: map[trace.Lock]int{5: 3}}
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.ForkOp(0, 2),
		trace.Wr(2, 0),
		trace.BarrierOp(0, 5),
		trace.BarrierOp(1, 5),
		trace.BarrierOp(2, 5), // completes the round of 3
		trace.Rd(0, 0),        // ordered by the barrier: no race
		trace.Wr(1, 1),
		trace.BarrierOp(0, 5), // incomplete second round, dropped
		trace.Rd(2, 1),        // not ordered: races with t1
		trace.JoinOp(0, 1),
		trace.JoinOp(0, 2),
	}
	for _, variant := range core.Variants() {
		src := trace.DesugarSource(trace.ValidateSource(tr.Source(), ext), ext)
		want, err := Check(src, Options{Variant: variant})
		if err != nil {
			t.Fatalf("%s streaming: %v", variant, err)
		}
		got, err := CheckTrace(tr, ext, Options{Variant: variant})
		if err != nil {
			t.Fatalf("%s fused: %v", variant, err)
		}
		requireEqualReports(t, want, got, variant)
	}
}

// TestParallelUnknownVariant mirrors core.New's error contract.
func TestParallelUnknownVariant(t *testing.T) {
	if _, err := Check(trace.Trace{}.Source(), Options{Variant: "nope"}); err == nil {
		t.Fatal("want error for unknown variant")
	}
}

// TestParallelDefaults: zero-value Options mean vft-v2.
func TestParallelDefaults(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0),
		trace.Wr(1, 0),
	}
	src := trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
	got, err := Check(src, Options{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(got) != 1 || got[0].Detector != "vft-v2" {
		t.Fatalf("want one vft-v2 report, got %+v", got)
	}
}

// FuzzParallelEquivalence drives the equivalence property from arbitrary
// bytes: FromBytes repairs any input into a feasible trace, and the
// offline check must match the bare replay on it — reports and analysis
// counters — for a report cap drawn from the input, under a variant also
// drawn from it and, on every input, under the default variant: that one
// is parcheck's own machine, where the other four are core's detectors.
// Each check runs on a fresh state and again on one the hostile Go-sync
// trace has dirtied, and the two must agree (requireSameOutcome).
func FuzzParallelEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte{0, 4, 0, 1, 0, 0, 1, 1, 0, 2, 5, 0}, uint8(2))
	f.Add([]byte{9, 9, 2, 2, 3, 3, 0, 0, 1, 1, 4, 4, 5, 5, 0, 1}, uint8(3))
	// fork 0 1, fork 0 2, rd 1 x5, rd 2 x5 (Share), wr 0 x5 ([Shared-Write
	// Race]), rd 1 x5 and rd 2 x5 again ([Read Shared Same Epoch]); cap 2.
	f.Add([]byte{0, 4, 0, 4, 1, 0, 5, 2, 0, 5, 0, 1, 5, 1, 0, 5, 2, 0, 5}, uint8(2))
	// fork 0 1, then threads 0 and 1 write x3 in turn and 0 reads it: four
	// races on one variable under cap 1, three of them dropped.
	f.Add([]byte{0, 4, 0, 1, 3, 1, 1, 3, 0, 1, 3, 1, 1, 3, 0, 0, 3}, uint8(1))
	variants := core.Variants()
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		tr := trace.FromBytes(data)
		maxPerVar := int(pick) % 3
		checked := []string{variants[int(pick)%len(variants)]}
		if checked[0] != "vft-v2" {
			checked = append(checked, "vft-v2")
		}
		for _, variant := range checked {
			bare := bareDetector(t, tr, variant, maxPerVar)
			var fresh, warm outcome
			onState(new(checkState), func() { fresh.reports, fresh.snap = offlineStats(t, tr, variant, maxPerVar) })
			onState(dirtied(t), func() { warm.reports, warm.snap = offlineStats(t, tr, variant, maxPerVar) })
			requireEqualReports(t, bare.Reports(), fresh.reports, variant)
			requireEqualAnalysisCounters(t, bare, fresh.snap, variant)
			requireSameOutcome(t, variant, fresh, warm)
		}
	})
}
