package verifiedft

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/rtsim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recordWorkload captures the feasible event stream one run of a harness
// workload delivers to a detector.
func recordWorkload(t testing.TB, name string, size int) Trace {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatalf("workloads.ByName(%q): %v", name, err)
	}
	rec := core.NewRecorder()
	rt := rtsim.New(rec)
	if size <= 0 {
		size = w.TestSize
	}
	w.Run(rt, size)
	return rec.Trace()
}

// TestParallelMatchesSequentialOnWorkloads is the tentpole acceptance
// check at the public API: on real harness workload traces, CheckTrace
// with WithParallelism produces the identical report list — for every
// detector variant and several worker counts.
func TestParallelMatchesSequentialOnWorkloads(t *testing.T) {
	for _, name := range []string{"montecarlo", "pmd", "sparse"} {
		tr := recordWorkload(t, name, 0)
		for _, variant := range Variants() {
			want, err := CheckTrace(tr, WithVariant(variant))
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, variant, err)
			}
			for _, workers := range []int{2, 4} {
				got, err := CheckTrace(tr, WithVariant(variant), WithParallelism(workers))
				if err != nil {
					t.Fatalf("%s/%s parallel(%d): %v", name, variant, workers, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s: parallel(%d) diverged:\nsequential: %+v\nparallel:   %+v",
						name, variant, workers, want, got)
				}
			}
		}
	}
}

// TestParallelMatchesSequentialOnGeneratedTraces covers racy inputs: the
// workloads are race-free by construction, so drive the public API over
// generated traces too (the heavy sweep lives in internal/parcheck).
func TestParallelMatchesSequentialOnGeneratedTraces(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 400
	for seed := int64(0); seed < 8; seed++ {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		for _, variant := range Variants() {
			want, err := CheckTrace(tr, WithVariant(variant))
			if err != nil {
				t.Fatalf("seed %d %s sequential: %v", seed, variant, err)
			}
			got, err := CheckTrace(tr, WithVariant(variant), WithParallelism(3))
			if err != nil {
				t.Fatalf("seed %d %s parallel: %v", seed, variant, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d %s: parallel diverged\nsequential: %+v\nparallel:   %+v",
					seed, variant, want, got)
			}
		}
	}
}

// TestParallelMatchesSequentialOnConformanceCorpus covers the racy
// programs under controlled schedules: two PCT seeds per program vary
// where the races land, and every variant's report list must be
// byte-identical through the parallel checker.
func TestParallelMatchesSequentialOnConformanceCorpus(t *testing.T) {
	for _, prog := range conformance.Programs() {
		for _, seed := range []uint64{1, 42} {
			tr, _, err := conformance.RunOne(prog, "pct", seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", prog.Name, seed, err)
			}
			for _, variant := range Variants() {
				want, err := CheckTrace(tr, WithVariant(variant))
				if err != nil {
					t.Fatalf("%s/%s sequential: %v", prog.Name, variant, err)
				}
				got, err := CheckTrace(tr, WithVariant(variant), WithParallelism(4))
				if err != nil {
					t.Fatalf("%s/%s parallel: %v", prog.Name, variant, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s seed %d: parallel diverged\nsequential: %+v\nparallel:   %+v",
						prog.Name, variant, seed, want, got)
				}
			}
		}
	}
}

// TestWithParallelismZeroMeansGOMAXPROCS: n <= 0 resolves to all cores
// and still matches the sequential replay.
func TestWithParallelismZeroMeansGOMAXPROCS(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 1 {
		t.Skip("no procs?")
	}
	tr := Trace{Fork(0, 1), Write(0, 0), Write(1, 0)}
	want, err := CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckTrace(tr, WithParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel(GOMAXPROCS) diverged: %+v vs %+v", want, got)
	}
}

// TestParallelInfeasibleTrace: the parallel path keeps CheckTrace's
// contract that an infeasible trace yields an error and no reports.
func TestParallelInfeasibleTrace(t *testing.T) {
	tr := Trace{Acquire(0, 0), Acquire(1, 0)} // lock already held
	if _, err := CheckTrace(tr); err == nil {
		t.Fatal("sequential: want error")
	}
	reports, err := CheckTrace(tr, WithParallelism(4))
	if err == nil {
		t.Fatal("parallel: want error")
	}
	if reports != nil {
		t.Fatalf("parallel: want nil reports on error, got %+v", reports)
	}
}

// ftcas300 is a valid 300-thread trace: fine for every 16-bit-tid variant,
// beyond FT-CAS's 8-bit tids (core.MaxTid32 = 254) from "fork 0 255" on.
func ftcas300() string {
	var b strings.Builder
	for u := 1; u < 300; u++ {
		fmt.Fprintf(&b, "fork 0 %d\n", u)
	}
	b.WriteString("wr 299 1\nwr 0 1\n")
	return b.String()
}

// TestOutOfRangeTidIsTypedError: a trace naming a thread id beyond the
// selected variant's epoch format — epoch.MaxTid, or core.MaxTid32 under
// ft-cas — comes back as a positioned *trace.TidRangeError from the reader
// pipeline and from the parallel checker, where it used to panic.
func TestOutOfRangeTidIsTypedError(t *testing.T) {
	cases := []struct {
		name, input string
		variant     string
		index       int
		tid, max    epoch.Tid
	}{
		{"beyond every format", "fork 0 70000\nwr 70000 1\nwr 0 1\n", V2, 0, 70000, epoch.MaxTid},
		{"beyond ft-cas", ftcas300(), FTCAS, 254, 255, core.MaxTid32},
	}
	for _, tc := range cases {
		for name, opts := range map[string][]CheckOption{
			"sequential": nil,
			"parallel":   {WithParallelism(2)},
		} {
			opts = append(opts, WithVariant(tc.variant))
			reports, err := CheckReader(strings.NewReader(tc.input), opts...)
			var re *trace.TidRangeError
			if !errors.As(err, &re) || re.Index != tc.index || re.Tid != tc.tid || re.Max != tc.max {
				t.Errorf("%s/%s: err = %v, want *TidRangeError at #%d for tid %d (max %d)",
					tc.name, name, err, tc.index, tc.tid, tc.max)
			}
			if reports != nil {
				t.Errorf("%s/%s: want nil reports on error, got %+v", tc.name, name, reports)
			}
		}
	}
	// The same 300 threads are an ordinary race under a 16-bit variant.
	reports, err := CheckReader(strings.NewReader(ftcas300()), WithVariant(FTMutex))
	if err != nil || len(reports) != 1 {
		t.Errorf("ft-mutex on 300 threads: %d reports, err %v; want the one write-write race", len(reports), err)
	}
}

// TestParallelMetricsSource: in parallel mode WithMetrics receives the
// checker's own "parcheck" source with the shard/intern accounting.
func TestParallelMetricsSource(t *testing.T) {
	tr := recordWorkload(t, "montecarlo", 0)
	m := NewMetrics()
	if _, err := CheckTrace(tr, WithParallelism(4), WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Gauges["parcheck.workers"] != 4 {
		t.Fatalf("parcheck.workers = %d, want 4", s.Gauges["parcheck.workers"])
	}
	if s.Counters["parcheck.ops.access"] == 0 {
		t.Fatal("parcheck.ops.access not recorded")
	}
	hits, misses := s.Counters["parcheck.intern.hits"], s.Counters["parcheck.intern.misses"]
	if hits+misses == 0 {
		t.Fatal("interner never consulted")
	}
	if s.Counters["parcheck.vc.freeze_reuses"] == 0 {
		t.Fatal("freeze cache never reused: copy-on-write snapshots are not sharing")
	}
}

// TestCheckTracePreSizesShadowTables asserts the satellite guarantee: on
// harness workload traces, the id-space prescan sizes every shadow table
// exactly, so the detector never grows one mid-run.
func TestCheckTracePreSizesShadowTables(t *testing.T) {
	for _, name := range []string{"montecarlo", "pmd", "sparse", "sor", "crypt"} {
		tr := recordWorkload(t, name, 0)
		for _, variant := range Variants() {
			m := NewMetrics()
			if _, err := CheckTrace(tr, WithVariant(variant), WithMetrics(m)); err != nil {
				t.Fatalf("%s/%s: %v", name, variant, err)
			}
			s := m.Snapshot()
			for _, table := range []string{"threads", "vars", "locks"} {
				key := fmt.Sprintf("%s.shadow.%s.grows", variant, table)
				if variant == Eraser && table == "locks" {
					continue // Eraser keeps no lock shadow table
				}
				if n, ok := s.Counters[key]; !ok {
					t.Errorf("%s/%s: counter %s missing", name, variant, key)
				} else if n != 0 {
					t.Errorf("%s/%s: %s = %d, want 0 (prescan under-sized the table)", name, variant, key, n)
				}
			}
		}
	}
}

// TestIDSpaceScanMatchesLowering checks the prescan against the lowering
// it predicts: replay the desugared stream and confirm every lowered id
// falls inside the scanned space.
func TestIDSpaceScanMatchesLowering(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	for seed := int64(0); seed < 10; seed++ {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		// Salt with extended ops to exercise the pseudo-lock arm.
		tr = append(Trace{VolatileWrite(0, 7), BarrierArrive(0, 3)}, tr...)
		ids := trace.Scan(tr)
		for _, op := range tr.Desugar(nil) {
			if int(op.T) >= ids.Threads {
				t.Fatalf("seed %d: thread %d outside scanned space %d", seed, op.T, ids.Threads)
			}
			switch op.Kind {
			case trace.Read, trace.Write:
				if int(op.X) >= ids.Vars {
					t.Fatalf("seed %d: var %d outside scanned space %d", seed, op.X, ids.Vars)
				}
			case trace.Acquire, trace.Release:
				if int(op.M) >= ids.Locks {
					t.Fatalf("seed %d: lowered lock %d outside scanned space %d", seed, op.M, ids.Locks)
				}
			}
		}
	}
}
