package parcheck

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/spec"
	"repro/internal/trace"
)

// renaming is a sparse injective relabelling of a trace's thread,
// variable and lock-like ids. Thread 0 stays 0: it is the main thread by
// the validator's rule, not by convention.
type renaming struct {
	tid map[epoch.Tid]epoch.Tid
	x   map[trace.Var]trace.Var
	m   map[trace.Lock]trace.Lock
}

// pick returns a fresh value in [1, limit), unused so far.
func pick(rng *rand.Rand, used map[int32]bool, limit int32) int32 {
	for {
		if v := 1 + rng.Int31n(limit-1); !used[v] {
			used[v] = true
			return v
		}
	}
}

// rename applies a fresh random renaming to tr, drawing thread ids up to
// maxTid, variable ids from the whole positive int32 range and lock ids
// from the real-lock space.
func rename(rng *rand.Rand, tr trace.Trace, ext *trace.Extensions, maxTid epoch.Tid) (trace.Trace, *trace.Extensions, renaming) {
	rn := renaming{
		tid: map[epoch.Tid]epoch.Tid{0: 0},
		x:   map[trace.Var]trace.Var{},
		m:   map[trace.Lock]trace.Lock{},
	}
	usedT, usedX, usedM := map[int32]bool{}, map[int32]bool{}, map[int32]bool{}
	tid := func(t epoch.Tid) epoch.Tid {
		if _, ok := rn.tid[t]; !ok {
			rn.tid[t] = epoch.Tid(pick(rng, usedT, int32(maxTid)+1))
		}
		return rn.tid[t]
	}
	lock := func(m trace.Lock) trace.Lock {
		if _, ok := rn.m[m]; !ok {
			rn.m[m] = trace.Lock(pick(rng, usedM, 1<<24))
		}
		return rn.m[m]
	}
	out := make(trace.Trace, len(tr))
	for i, op := range tr {
		op.T = tid(op.T)
		switch op.Kind {
		case trace.Fork, trace.Join:
			op.U = tid(op.U)
		case trace.Read, trace.Write, trace.VolatileRead, trace.VolatileWrite,
			trace.AtomicLoad, trace.AtomicStore, trace.AtomicRMW:
			if _, ok := rn.x[op.X]; !ok {
				rn.x[op.X] = trace.Var(pick(rng, usedX, 1<<31-1))
			}
			op.X = rn.x[op.X]
		default:
			op.M = lock(op.M)
		}
		out[i] = op
	}
	var rext *trace.Extensions
	if ext != nil {
		rext = &trace.Extensions{ChanCapacity: map[trace.Lock]int{}}
		for c, n := range ext.ChanCapacity {
			rext.ChanCapacity[lock(c)] = n
		}
	}
	return out, rext, rn
}

// TestFrontStageIsInvisible is the front stage's contract as a property:
// relabel a feasible trace (Go-sync kinds included) with sparse, unordered
// ids and the check returns the original run's reports with the relabelling
// applied — for every variant. With sampling on, the
// reports are that list restricted to the variables the policy samples by
// their *renamed* raw ids: compaction never feeds the sampler.
func TestFrontStageIsInvisible(t *testing.T) {
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 600
	cfg.Threads = 6
	ext := cfg.Extensions()
	pol := sample.Policy{Rate: 0.3, Seed: 5}
	for _, variant := range core.Variants() {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := trace.Generate(rng, cfg)
			renamed, rext, rn := rename(rng, tr, ext, core.MaxTid(variant))
			base, err := CheckTrace(tr, ext, Options{Variant: variant})
			if err != nil {
				t.Fatalf("%s seed %d: %v", variant, seed, err)
			}
			want := make([]core.Report, len(base))
			for i, r := range base {
				r.T, r.X = rn.tid[r.T], rn.x[r.X]
				r.Prev = epoch.Make(rn.tid[r.Prev.Tid()], r.Prev.Clock())
				want[i] = r
			}
			var wantSampled []core.Report
			for _, r := range want {
				if pol.Sampled(r.X) {
					r.Seq = len(wantSampled)
					wantSampled = append(wantSampled, r)
				}
			}
			got, err := CheckTrace(renamed, rext, Options{Variant: variant})
			if err != nil {
				t.Fatalf("%s seed %d renamed: %v", variant, seed, err)
			}
			requireEqualReports(t, want, got, variant)

			var snap obs.Snapshot
			got, err = CheckTrace(renamed, rext, Options{Variant: variant,
				Sampling: &pol, StatsSink: func(s obs.Snapshot) { snap = s }})
			if err != nil {
				t.Fatalf("%s seed %d renamed and sampled: %v", variant, seed, err)
			}
			if len(got) != len(wantSampled) {
				t.Fatalf("%s seed %d: %d sampled reports, want %d", variant, seed, len(got), len(wantSampled))
			}
			if len(got) > 0 {
				requireEqualReports(t, wantSampled, got, variant)
			}
			var sampledVars uint64
			for _, x := range renamed.Vars() {
				if pol.Sampled(x) {
					sampledVars++
				}
			}
			if n := snap.Gauges["sampling.vars.sampled"]; n != sampledVars {
				t.Fatalf("%s seed %d: %d variables sampled, the policy samples %d of the renamed ids",
					variant, seed, n, sampledVars)
			}
		}
	}
}

// TestOfflineCheckIsBareReplay: the offline check is core's detector and
// nothing else — for every variant the reports and the detector's own
// counters (rule firings, access and sync totals, report accounting) are
// those of a bare core.New detector replayed over the same lowered trace,
// and the sink's snapshot carries the stream's ops.* totals beside them.
func TestOfflineCheckIsBareReplay(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 500
	for _, variant := range core.Variants() {
		for seed := int64(0); seed < 6; seed++ {
			tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
			low := tr.Desugar(nil)
			bare, err := core.New(variant, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := core.Replay(bare, low)

			var snap obs.Snapshot
			got, err := CheckTrace(tr, nil, Options{Variant: variant,
				StatsSink: func(s obs.Snapshot) { snap = s }})
			if err != nil {
				t.Fatalf("%s seed %d: %v", variant, seed, err)
			}
			requireEqualReports(t, want, got, variant)

			for key, n := range bare.(core.StatsSource).Stats().Counters {
				if strings.HasPrefix(key, "vc.") {
					continue // clock growth follows the renumbered ids, not the analysis
				}
				if snap.Counters[key] != n {
					t.Errorf("%s seed %d: counter %s = %d, bare detector %d", variant, seed, key, snap.Counters[key], n)
				}
			}
			accesses := 0
			for _, op := range low {
				if op.IsAccess() {
					accesses++
				}
			}
			if snap.Counters["ops.total"] != uint64(len(low)) || snap.Counters["ops.access"] != uint64(accesses) ||
				snap.Counters["ops.sync"] != uint64(len(low)-accesses) {
				t.Errorf("%s seed %d: ops %d/%d/%d, want %d/%d/%d", variant, seed,
					snap.Counters["ops.total"], snap.Counters["ops.access"], snap.Counters["ops.sync"],
					len(low), accesses, len(low)-accesses)
			}
		}
	}
}

// TestEvidenceFollowsFirstTouchOrder pins the one place compaction shows:
// a write unordered with several prior reads names the first of them in
// thread order as its evidence, and behind the front stage thread order is
// first-touch order. Thread 2 is forked (touched) before thread 1 here, so
// the report names thread 2's read where a detector fed raw ids names
// thread 1's; both reads do race with the write. Traces that fork threads
// in increasing id order — every producer in this repository — see no
// difference (TestOfflineCheckIsBareReplay, the equivalence suites).
func TestEvidenceFollowsFirstTouchOrder(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 2), trace.ForkOp(0, 1),
		trace.Rd(2, 7), trace.Rd(1, 7), trace.Wr(0, 7),
	}
	got, err := CheckTrace(tr, nil, Options{})
	if err != nil || len(got) != 1 || got[0].Rule != spec.SharedWriteRace || got[0].Prev.Tid() != 2 {
		t.Errorf("reports %v, err %v; want one Shared-Write Race naming thread 2's read", got, err)
	}
	bare, _ := core.New("vft-v2", core.Config{})
	if raw := core.Replay(bare, tr); len(raw) != 1 || raw[0].Prev.Tid() != 1 {
		t.Errorf("raw-id replay: reports %v; want the same race naming thread 1's read", raw)
	}
}

// TestFeedClockCeiling: under a clock ceiling the feed counts what moves a
// thread's own clock entry — its releases, the pairs its Go-sync ops lower
// to, its forks, and (the FT join rule) each join of it — and refuses the
// op that would take the clock, which starts at 1, past the ceiling.
func TestFeedClockCeiling(t *testing.T) {
	rounds := func(n int, ops ...trace.Op) (tr trace.Trace) {
		for ; n > 0; n-- {
			tr = append(tr, ops...)
		}
		return tr
	}
	cases := []struct {
		name  string
		tr    trace.Trace
		index int
		tid   epoch.Tid
	}{
		{"releases", rounds(3, trace.Acq(0, 0), trace.Rel(0, 0)), 5, 0},
		{"lowered pairs", rounds(3, trace.AStore(0, 5)), 2, 0},
		{"forks", trace.Trace{trace.ForkOp(0, 1), trace.ForkOp(0, 2), trace.ForkOp(0, 3)}, 2, 0},
		{"joins", append(trace.Trace{trace.ForkOp(0, 1), trace.Wr(1, 0)}, rounds(3, trace.JoinOp(0, 1))...), 4, 1},
	}
	for _, tc := range cases {
		st := new(checkState)
		st.m.Reset(0)
		st.front.Det = &st.m
		fd := kernel.NewFeed(nil, epoch.MaxTid, 3, &st.front, nil)
		err := fd.Check(tc.tr)
		var ce *trace.ClockRangeError
		if !errors.As(err, &ce) || ce.Index != tc.index || ce.Op != tc.tr[tc.index] || ce.Tid != tc.tid || ce.Max != 3 {
			t.Errorf("%s: stopped with %v; want a *ClockRangeError at #%d for thread %d", tc.name, err, tc.index, tc.tid)
		}
	}
}
