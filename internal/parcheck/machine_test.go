package parcheck

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// TestMachineStatsKeysMatchV2: a default-variant check's snapshot is
// core.V2's snapshot — the same counter and gauge names, and the same
// value wherever the value follows the analysis (shadow.vars_shared
// included) rather than table occupancy (shadow.*) or clock growth
// (vc.*) — on Go-sync traces, under
// report caps and under a sampling policy. The stage's own ops.* and
// sampling.* keys sit beside them and are set aside. The machine's tables
// hold what the trace names, no more: its shadow.threads, shadow.vars and
// shadow.locks are the distinct threads, sampled variables and locks of
// the lowered trace.
func TestMachineStatsKeysMatchV2(t *testing.T) {
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 600
	ext := cfg.Extensions()
	pol := &sample.Policy{Rate: 0.5, Seed: 3}
	cases := []struct {
		maxPerVar int
		sampling  *sample.Policy
	}{{0, nil}, {1, nil}, {2, nil}, {0, pol}, {1, pol}}
	for seed := int64(0); seed < 8; seed++ {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		for _, c := range cases {
			bare, err := core.New("vft-v2", core.Config{MaxReportsPerVar: c.maxPerVar})
			if err != nil {
				t.Fatal(err)
			}
			threads, vars, locks := map[epoch.Tid]bool{}, map[trace.Var]bool{}, map[trace.Lock]bool{}
			for _, op := range tr.Desugar(ext) {
				threads[op.T] = true
				switch op.Kind {
				case trace.Fork, trace.Join:
					threads[op.U] = true
				case trace.Acquire, trace.Release:
					locks[op.M] = true
				}
				if c.sampling == nil || !op.IsAccess() || c.sampling.Sampled(op.X) {
					core.Dispatch(bare, op)
					if op.IsAccess() {
						vars[op.X] = true
					}
				}
			}
			want := bare.(core.StatsSource).Stats()

			var got obs.Snapshot
			if _, err := CheckTrace(tr, ext, Options{MaxReportsPerVar: c.maxPerVar, Sampling: c.sampling,
				StatsSink: func(s obs.Snapshot) { got = s }}); err != nil {
				t.Fatalf("seed %d %+v: %v", seed, c, err)
			}
			g := got.Gauges
			if g["shadow.threads"] != uint64(len(threads)) || g["shadow.vars"] != uint64(len(vars)) || g["shadow.locks"] != uint64(len(locks)) {
				t.Errorf("seed %d %+v: the machine holds %d threads, %d variables and %d locks; the lowered trace names %d, %d and %d",
					seed, c, g["shadow.threads"], g["shadow.vars"], g["shadow.locks"], len(threads), len(vars), len(locks))
			}
			for _, kind := range []struct {
				name      string
				want, got map[string]uint64
			}{{"counter", want.Counters, got.Counters}, {"gauge", want.Gauges, got.Gauges}} {
				for key, n := range kind.want {
					v, ok := kind.got[key]
					if !ok {
						t.Errorf("seed %d %+v: %s %s missing from the machine's snapshot", seed, c, kind.name, key)
					} else if v != n && (key == "shadow.vars_shared" || !strings.HasPrefix(key, "shadow.") && !strings.HasPrefix(key, "vc.")) {
						t.Errorf("seed %d %+v: %s %s = %d, core.V2 %d", seed, c, kind.name, key, v, n)
					}
				}
				for key := range kind.got {
					if _, ok := kind.want[key]; !ok && !strings.HasPrefix(key, "ops.") && !strings.HasPrefix(key, "sampling.") {
						t.Errorf("seed %d %+v: %s %s is not one of core.V2's", seed, c, kind.name, key)
					}
				}
			}
		}
	}
}

// stripedTrace is a race-free lowered trace in the shape of the
// benchmark's sync-dense input: threads workers forked by main, each
// round taking one of stripes locks around a read and a write of a
// variable that lock guards, then all joined.
func stripedTrace(threads, stripes, rounds int) trace.Trace {
	var tr trace.Trace
	for u := 1; u < threads; u++ {
		tr = append(tr, trace.ForkOp(0, epoch.Tid(u)))
	}
	for r := 0; r < rounds; r++ {
		for u := 1; u < threads; u++ {
			t, m := epoch.Tid(u), (u*7+r)%stripes
			x := trace.Var(m + stripes*(r%4))
			tr = append(tr, trace.Acq(t, trace.Lock(m)), trace.Rd(t, x), trace.Wr(t, x), trace.Rel(t, trace.Lock(m)))
		}
	}
	for u := 1; u < threads; u++ {
		tr = append(tr, trace.JoinOp(0, epoch.Tid(u)))
	}
	return tr
}

// TestMachineSteadyStateDoesNotAllocate: once a pass has sized the tables
// and the clocks, replaying the trace allocates nothing — the machine
// grows by slice doubling and appends a Report on a race, and that is all.
func TestMachineSteadyStateDoesNotAllocate(t *testing.T) {
	tr := stripedTrace(32, 16, 50)
	m := &kernel.Machine{}
	replay := func() {
		for _, op := range tr {
			core.Dispatch(m, op)
		}
	}
	replay()
	if n := testing.AllocsPerRun(5, replay); n != 0 {
		t.Errorf("%v allocations per warm pass over %d ops, want 0", n, len(tr))
	}
	if len(m.Reports()) != 0 {
		t.Errorf("the striped trace is race-free; got %v", m.Reports())
	}
}

// TestMachineTablesFollowCompactIDs is TestHostileIDsAreBounded (root) per
// table: the machine's tables hold what the trace names, whatever the ids'
// magnitude.
func TestMachineTablesFollowCompactIDs(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 65000),
		trace.Wr(65000, 2000000000),
		trace.Wr(0, 2000000000),
	}
	var snap obs.Snapshot
	got, err := CheckTrace(tr, nil, Options{StatsSink: func(s obs.Snapshot) { snap = s }})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].T != 0 || got[0].X != 2000000000 || got[0].Prev.Tid() != 65000 {
		t.Errorf("reports %v, want one race on x2000000000 between threads 65000 and 0", got)
	}
	g := snap.Gauges
	if g["shadow.threads"] != 2 || g["shadow.vars"] != 1 || g["shadow.locks"] != 0 {
		t.Errorf("%d threads, %d variables, %d locks; want 2, 1, 0",
			g["shadow.threads"], g["shadow.vars"], g["shadow.locks"])
	}
}

// BenchmarkCheckLowered sets the offline machine beside the detector it
// replaced on the offline path, over one pre-lowered lock-striped trace:
// machine is a default-variant Check (front stage included), core-v2 a
// bare core.V2 replay of the same ops.
func BenchmarkCheckLowered(b *testing.B) {
	tr := stripedTrace(32, 64, 2000)
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/lowered-op")
	}
	b.Run("machine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if reports, err := Check(trace.NewSliceSource(tr), Options{}); err != nil || len(reports) != 0 {
				b.Fatal(fmt.Sprint(reports, err))
			}
		}
		perOp(b)
	})
	b.Run("core-v2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := core.New("vft-v2", core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if reports := core.Replay(d, tr); len(reports) != 0 {
				b.Fatal(reports)
			}
		}
		perOp(b)
	})
}
