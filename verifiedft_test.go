package verifiedft_test

import (
	"reflect"
	"testing"

	verifiedft "repro"
)

func TestCheckTraceDetectsRace(t *testing.T) {
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.Write(1, 0),
	}
	reports, err := verifiedft.CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	if reports[0].X != 0 || reports[0].T != 1 {
		t.Fatalf("report fields: %+v", reports[0])
	}
}

func TestCheckTraceCleanProgram(t *testing.T) {
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Acquire(0, 0), verifiedft.Write(0, 0), verifiedft.Release(0, 0),
		verifiedft.Acquire(1, 0), verifiedft.Read(1, 0), verifiedft.Release(1, 0),
		verifiedft.Join(0, 1),
		verifiedft.Write(0, 0),
	}
	reports, err := verifiedft.CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("false positives: %v", reports)
	}
}

func TestCheckTraceRejectsInfeasible(t *testing.T) {
	tr := verifiedft.Trace{verifiedft.Release(0, 0)}
	if _, err := verifiedft.CheckTrace(tr); err == nil {
		t.Fatal("infeasible trace accepted")
	}
}

func TestCheckTraceExtendedOps(t *testing.T) {
	// Volatile publication: race-free.
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.VolatileWrite(0, 9),
		verifiedft.VolatileRead(1, 9),
		verifiedft.Read(1, 0),
	}
	reports, err := verifiedft.CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("volatile publication misreported: %v", reports)
	}
	// Barrier ordering with explicit parties.
	tr = verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.BarrierArrive(0, 0),
		verifiedft.BarrierArrive(1, 0),
		verifiedft.Read(1, 0),
	}
	reports, err = verifiedft.CheckTrace(tr,
		verifiedft.WithBarrierParties(map[verifiedft.LockID]int{0: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("barrier ordering misreported: %v", reports)
	}
}

func TestCheckTraceWithEveryVariant(t *testing.T) {
	racy := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.Read(1, 0),
	}
	for _, v := range verifiedft.Variants() {
		reports, err := verifiedft.CheckTrace(racy, verifiedft.WithVariant(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) == 0 {
			t.Errorf("%s missed the race", v)
		}
	}
}

func TestHasRaceOracle(t *testing.T) {
	racy := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.Write(1, 0),
	}
	ok, err := verifiedft.HasRace(racy)
	if err != nil || !ok {
		t.Fatalf("HasRace = %v, %v", ok, err)
	}
	clean := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(1, 0),
		verifiedft.Join(0, 1),
		verifiedft.Write(0, 0),
	}
	ok, err = verifiedft.HasRace(clean)
	if err != nil || ok {
		t.Fatalf("HasRace(clean) = %v, %v", ok, err)
	}
}

func TestOnlineAPI(t *testing.T) {
	d, err := verifiedft.New(verifiedft.V2)
	if err != nil {
		t.Fatal(err)
	}
	rt := verifiedft.NewRuntime(d)
	main := rt.Main()
	x := rt.NewVar()
	mu := rt.NewMutex()

	child := main.Go(func(w *verifiedft.Thread) {
		mu.Lock(w)
		x.Add(w, 1)
		mu.Unlock(w)
	})
	mu.Lock(main)
	x.Add(main, 1)
	mu.Unlock(main)
	main.Join(child)

	if reports := rt.Reports(); len(reports) != 0 {
		t.Fatalf("false positives: %v", reports)
	}
	if got := x.Load(main); got != 2 {
		t.Fatalf("value = %d", got)
	}
}

func TestNewRejectsUnknownVariant(t *testing.T) {
	if _, err := verifiedft.New("fasttrack-v9"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestValidateTrace(t *testing.T) {
	good := verifiedft.Trace{verifiedft.Write(0, 0)}
	if err := verifiedft.ValidateTrace(good); err != nil {
		t.Fatal(err)
	}
	bad := verifiedft.Trace{verifiedft.Release(0, 0)}
	if err := verifiedft.ValidateTrace(bad); err == nil {
		t.Fatal("infeasible trace accepted")
	}
}

func TestCheckTraceVariantErrors(t *testing.T) {
	if _, err := verifiedft.CheckTrace(verifiedft.Trace{verifiedft.Read(0, 0)},
		verifiedft.WithVariant("nope")); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := verifiedft.CheckTrace(verifiedft.Trace{verifiedft.Release(0, 0)},
		verifiedft.WithVariant(verifiedft.V1)); err == nil {
		t.Fatal("infeasible trace accepted")
	}
}

func TestHasRaceRejectsInfeasible(t *testing.T) {
	if _, err := verifiedft.HasRace(verifiedft.Trace{verifiedft.Release(0, 0)}); err == nil {
		t.Fatal("infeasible trace accepted")
	}
}

// configFor must size tables to the trace's largest ids; exercised through
// a trace with big thread, variable and lock ids.
func TestCheckTraceLargeIDs(t *testing.T) {
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1), verifiedft.Fork(1, 2), verifiedft.Fork(2, 3),
		verifiedft.Acquire(3, 900), verifiedft.Release(3, 900),
		verifiedft.Write(3, 500),
		verifiedft.Read(0, 500), // races
	}
	reports, err := verifiedft.CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].X != 500 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestCheckTraceMaxReportsPerVar(t *testing.T) {
	// A write-write race followed by a write-read race at the same
	// variable: two reports without the cap, one with it.
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.Write(1, 0),
		verifiedft.Read(0, 0),
	}
	all, err := verifiedft.CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := verifiedft.CheckTrace(tr, verifiedft.WithMaxReportsPerVar(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 || len(capped) != 1 {
		t.Fatalf("uncapped %d reports, capped %d", len(all), len(capped))
	}
}

// WithMetrics counts, it does not time: the registry receives the
// detector's own counters under the variant name and nothing else, and
// every variant's reports are the ones it gives without a registry.
func TestCheckTraceWithMetrics(t *testing.T) {
	m := verifiedft.NewMetrics()
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.Write(1, 0),
	}
	if _, err := verifiedft.CheckTrace(tr, verifiedft.WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got := snap.Counters["vft-v2.writes.total"]; got != 2 {
		t.Fatalf("vft-v2.writes.total = %d, want 2 (snapshot %v)", got, snap.Counters)
	}
	if got := snap.Counters["vft-v2.reports.recorded"]; got != 1 {
		t.Fatalf("vft-v2.reports.recorded = %d, want 1", got)
	}
	if len(snap.Histograms) != 0 {
		t.Fatalf("histograms %v, want none", snap.Histograms)
	}
	for _, v := range verifiedft.Variants() {
		off, err1 := verifiedft.CheckTrace(tr, verifiedft.WithVariant(v))
		on, err2 := verifiedft.CheckTrace(tr, verifiedft.WithVariant(v), verifiedft.WithMetrics(verifiedft.NewMetrics()))
		if err1 != nil || err2 != nil || !reflect.DeepEqual(off, on) {
			t.Errorf("%s: metrics changed the reports: %v, %v vs %v, %v", v, off, err1, on, err2)
		}
	}
}

func TestNewWithOptions(t *testing.T) {
	d, err := verifiedft.New(verifiedft.V2, verifiedft.WithMaxReportsPerVar(1))
	if err != nil {
		t.Fatal(err)
	}
	rt := verifiedft.NewRuntime(d)
	main := rt.Main()
	x := rt.NewVar()
	child := main.Go(func(w *verifiedft.Thread) { x.Store(w, 1) })
	x.Store(main, 2) // races with the child's store; cap keeps it to one report
	main.Join(child)
	if got := len(rt.Reports()); got != 1 {
		t.Fatalf("reports = %d, want 1 (WithMaxReportsPerVar)", got)
	}
	ss, ok := d.(verifiedft.StatsSource)
	if !ok {
		t.Fatal("detector is not a StatsSource")
	}
	snap := ss.Stats()
	if got := snap.Counters["writes.total"]; got != 2 {
		t.Fatalf("writes.total = %d, want 2", got)
	}
}

// The functional-options API covers everything the removed wrappers
// (CheckTraceWith, DefaultConfig, NewWithConfig) used to do.
func TestFunctionalOptionsCoverRemovedWrappers(t *testing.T) {
	racy := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Write(0, 0),
		verifiedft.Write(1, 0),
	}
	reports, err := verifiedft.CheckTrace(racy, verifiedft.WithVariant(verifiedft.V1))
	if err != nil || len(reports) != 1 {
		t.Fatalf("CheckTrace(WithVariant(V1)) = %v, %v", reports, err)
	}
	if _, err := verifiedft.CheckTrace(racy, verifiedft.WithVariant("nope")); err == nil {
		t.Fatal("CheckTrace accepted an unknown variant")
	}
	d, err := verifiedft.New(verifiedft.V2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(verifiedft.NewRuntime(d).Reports()); got != 0 {
		t.Fatalf("fresh detector has %d reports", got)
	}
}

// TestConstructionCostsWhatTheRunNames: shadow tables start empty and grow
// with the ids a run names, so building a detector, or checking a 3-op
// trace, costs a few dozen allocations under every variant rather than a
// guessed table's worth (1,211 for New and 1,221 for the check when tables
// were pre-sized). The check's allowance covers
// what two threads and one variable cost a core detector's per-entity
// shadow objects, on top of the check path's own.
func TestConstructionCostsWhatTheRunNames(t *testing.T) {
	const newCeiling, checkCeiling = 16, 40
	tr := verifiedft.Trace{verifiedft.Fork(0, 1), verifiedft.Write(0, 0), verifiedft.Write(1, 0)}
	for _, v := range verifiedft.Variants() {
		newAllocs := testing.AllocsPerRun(20, func() {
			if _, err := verifiedft.New(v); err != nil {
				t.Fatal(err)
			}
		})
		checkAllocs := testing.AllocsPerRun(20, func() {
			if reports, err := verifiedft.CheckSource(tr.Source(), verifiedft.WithVariant(v)); err != nil || len(reports) != 1 {
				t.Fatalf("%s: %v, %v; want the one race", v, reports, err)
			}
		})
		t.Logf("%s: New %v allocations, 3-op CheckSource %v", v, newAllocs, checkAllocs)
		if newAllocs > newCeiling {
			t.Errorf("%s: New makes %v allocations, want at most %d", v, newAllocs, newCeiling)
		}
		if checkAllocs > checkCeiling {
			t.Errorf("%s: a 3-op CheckSource makes %v allocations, want at most %d", v, checkAllocs, checkCeiling)
		}
	}
}
