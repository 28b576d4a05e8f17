package parcheck

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// fusionTraces are shapes chosen to stress the fused-run elision rule
// where it is easiest to get wrong: long same-thread same-variable runs
// that are racy (the historical variants re-report on every access, so
// eliding a repeat after a report would change the report list), runs
// that alternate kinds (a write can reset the read state, so a read after
// a write is never a no-op), and capped reports (a suppressed emission
// still counts as "fired").
func fusionTraces() map[string]trace.Trace {
	mk := func(ops ...trace.Op) trace.Trace { return trace.Trace(ops) }
	long := trace.Trace{trace.ForkOp(0, 1), trace.Wr(1, 0)}
	for i := 0; i < 100; i++ {
		// 100 racy reads by thread 0 with no sync in between: one fused
		// run, and the priorRead baselines report [Write-Read Race] on
		// every single one.
		long = append(long, trace.Rd(0, 0))
	}
	return map[string]trace.Trace{
		"racy-read-run": long,
		"alternating": mk(
			trace.ForkOp(0, 1), trace.Wr(1, 0),
			trace.Rd(0, 0), trace.Wr(0, 0), trace.Rd(0, 0), trace.Wr(0, 0),
			trace.Rd(0, 0), trace.Rd(0, 0), trace.Wr(0, 0), trace.Wr(0, 0),
		),
		"write-run-then-reads": mk(
			trace.ForkOp(0, 1),
			trace.Wr(0, 5), trace.Wr(0, 5), trace.Wr(0, 5),
			trace.Wr(1, 5),
			trace.Rd(1, 5), trace.Rd(1, 5), trace.Rd(1, 5),
		),
		"shared-then-write": mk(
			trace.ForkOp(0, 1), trace.ForkOp(0, 2),
			trace.Rd(1, 2), trace.Rd(2, 2), // drive into Shared
			trace.Wr(0, 2), trace.Wr(0, 2), trace.Wr(0, 2),
			trace.Rd(1, 2), trace.Rd(1, 2),
		),
		"two-vars-interleaved": mk(
			trace.ForkOp(0, 1),
			trace.Wr(1, 0), trace.Wr(1, 1),
			// Runs broken by variable switches, both racy.
			trace.Rd(0, 0), trace.Rd(0, 0), trace.Rd(0, 1), trace.Rd(0, 1),
			trace.Rd(0, 0), trace.Wr(0, 1),
		),
		"sync-breaks-run": mk(
			trace.ForkOp(0, 1),
			trace.Acq(1, 0), trace.Wr(1, 3), trace.Rel(1, 0),
			trace.Rd(0, 3), trace.Rd(0, 3),
			trace.Acq(0, 0), trace.Rd(0, 3), trace.Rd(0, 3), trace.Rel(0, 0),
		),
		"run-longer-than-fusemax": func() trace.Trace {
			tr := trace.Trace{trace.ForkOp(0, 1), trace.Wr(1, 9)}
			for i := 0; i < 3*fuseMax/2; i++ {
				tr = append(tr, trace.Rd(0, 9))
			}
			return tr
		}(),
	}
}

// TestFusionEquivalence checks that fused-run replay reproduces the
// sequential report list byte for byte on the adversarial shapes, for
// every variant, with and without a per-variable cap.
func TestFusionEquivalence(t *testing.T) {
	for name, tr := range fusionTraces() {
		trace.MustValidate(tr)
		for _, variant := range []string{"vft-v1", "vft-v1.5", "vft-v2", "ft-mutex", "ft-cas", "djit", "eraser"} {
			for _, maxPerVar := range []int{0, 1, 2} {
				want := sequential(t, tr, variant, maxPerVar)
				for _, workers := range []int{1, 4} {
					got := parallel(t, tr, variant, workers, maxPerVar)
					if len(want) != len(got) {
						t.Fatalf("%s/%s cap=%d w=%d: %d reports, want %d",
							name, variant, maxPerVar, workers, len(got), len(want))
					}
					requireEqualReports(t, want, got, name+"/"+variant, workers)
				}
			}
		}
	}
}

// TestFusionCounters checks the observability of the batching layer: runs
// are actually fused, proven no-ops are actually elided, and the access
// count still reflects every operation of the stream.
func TestFusionCounters(t *testing.T) {
	// Race-free: one thread reads one variable 50 times. Everything past
	// the first read of the run is a same-epoch no-op and elidable.
	tr := trace.Trace{trace.Wr(0, 0)}
	for i := 0; i < 50; i++ {
		tr = append(tr, trace.Rd(0, 0))
	}
	trace.MustValidate(tr)
	var snap obs.Snapshot
	_, err := CheckTrace(tr, nil, Options{Workers: 2, StatsSink: func(s obs.Snapshot) { snap = s }})
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["ops.access"]; got != 51 {
		t.Fatalf("ops.access = %d, want 51 (fusion must not change op accounting)", got)
	}
	if snap.Counters["fused.runs"] == 0 {
		t.Fatalf("no fused runs recorded on a 51-op single-variable stream")
	}
	if snap.Counters["fused.ops"] < 50 {
		t.Fatalf("fused.ops = %d, want >= 50", snap.Counters["fused.ops"])
	}
	if got := snap.Counters["ops.elided"]; got < 45 {
		t.Fatalf("ops.elided = %d, want most of the run elided", got)
	}
}

// TestFusionNoElisionAfterReport pins the conservative side of the rule:
// on a racy run under a variant that re-reports every access (djit), no
// op may be elided once a report fires, or reports would be lost.
func TestFusionNoElisionAfterReport(t *testing.T) {
	// djit re-reports a racy read on every access; ft-mutex does so only
	// in the [Read Shared Same Epoch] fall-through (the priorRead
	// ordering), so its shape first drives the variable into Shared and
	// then makes a concurrent write racy against the repeat reader.
	djitTr := trace.Trace{trace.ForkOp(0, 1), trace.Wr(1, 0)}
	for i := 0; i < 10; i++ {
		djitTr = append(djitTr, trace.Rd(0, 0))
	}
	ftTr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Rd(0, 2), trace.Rd(1, 2), // Shared, with 0's epoch in the vector
		trace.Wr(1, 2), // concurrent with thread 0's later reads
	}
	for i := 0; i < 10; i++ {
		ftTr = append(ftTr, trace.Rd(0, 2))
	}
	for variant, tr := range map[string]trace.Trace{"djit": djitTr, "ft-mutex": ftTr} {
		trace.MustValidate(tr)
		want := sequential(t, tr, variant, 0)
		if len(want) < 10 {
			t.Fatalf("%s sequential: %d reports, want >= 10 (one per racy read)", variant, len(want))
		}
		var snap obs.Snapshot
		got, err := CheckTrace(tr, nil, Options{Variant: variant, Workers: 2,
			StatsSink: func(s obs.Snapshot) { snap = s }})
		if err != nil {
			t.Fatal(err)
		}
		requireEqualReports(t, want, got, variant, 2)
		if e := snap.Counters["ops.elided"]; e != 0 {
			t.Fatalf("%s: elided %d ops of an all-reporting run", variant, e)
		}
	}
}
