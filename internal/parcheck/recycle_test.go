package parcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// onState runs check with st as the state every check inside it takes.
func onState(st *checkState, check func()) {
	saved := states
	states = &sync.Pool{New: func() any { return st }}
	defer func() { states = saved }()
	check()
}

// hostileGoSync names ids at the edges of the tables — a thread id far
// past the others, a variable and a lock past the id tables' dense windows,
// Go-sync objects with huge ids — beside a small variable id that three
// threads share, so a state it has dirtied holds stale clocks, a read
// vector, reports and ids both dense and spilled. (It stays cheap to check:
// the fuzz targets dirty a state with it once per input.)
var hostileGoSync = trace.Trace{
	trace.ForkOp(0, 300), trace.ForkOp(0, 3),
	trace.Wr(300, 2000000000), trace.Wr(0, 2000000000),
	trace.Rd(300, 7), trace.Rd(3, 7), trace.Rd(0, 7),
	trace.Acq(3, 16000000), trace.Wr(3, 7), trace.Rel(3, 16000000),
	trace.SendOp(0, 1<<30), trace.RecvOp(300, 1<<30),
	trace.ALoad(3, 1<<30), trace.AStore(0, 1<<30), trace.OnceOp(300, 1<<29),
	trace.VWr(3, 2000000000), trace.BarrierOp(0, 1<<30), trace.BarrierOp(3, 1<<30),
	trace.JoinOp(0, 300), trace.JoinOp(0, 3),
}

// dirtied returns a state the hostile trace has been checked on — through
// CheckTrace under a report cap, then through Check under a sampling
// policy that rejects variable 7 — and that no check has reset since.
func dirtied(t testing.TB) *checkState {
	t.Helper()
	st := new(checkState)
	onState(st, func() {
		if _, err := CheckTrace(hostileGoSync, nil, Options{MaxReportsPerVar: 1}); err != nil {
			t.Fatal(err)
		}
		src := trace.DesugarSource(trace.ValidateSource(hostileGoSync.Source(), nil), nil)
		if _, err := Check(src, Options{Sampling: &sample.Policy{Rate: 0.5, Seed: 2}}); err != nil {
			t.Fatal(err)
		}
	})
	return st
}

// outcome is everything a caller sees of one check of some bytes.
type outcome struct {
	reports   []core.Report
	err       string
	n         int  // the operation count
	decodeErr bool // whether err is the decoder's own
	snap      obs.Snapshot
}

// checkBytes checks data through CheckSource, as CheckReader does, or
// through the pull pipeline into Check.
func checkBytes(t testing.TB, data []byte, ext *trace.Extensions, limit int, opts Options, pull bool) outcome {
	t.Helper()
	var o outcome
	opts.StatsSink = func(s obs.Snapshot) { o.snap = s }
	var err error
	if pull {
		o.reports, o.n, o.decodeErr, err = pulled(data, ext, limit, opts)
	} else {
		o.reports, o.n, o.decodeErr, err = fused(t, data, ext, limit, opts)
	}
	o.err = fmt.Sprint(err)
	return o
}

// requireSameOutcome holds a check on a recycled state to the same check
// on a fresh one: the same reports, error, operation count and snapshot —
// except that vc.grows counts only the clock reallocations the check made,
// which recycled clocks can only make fewer.
func requireSameOutcome(t testing.TB, what string, fresh, warm outcome) {
	t.Helper()
	if !reflect.DeepEqual(fresh.reports, warm.reports) || fresh.err != warm.err ||
		fresh.n != warm.n || fresh.decodeErr != warm.decodeErr {
		t.Fatalf("%s: recycled state diverged from a fresh one:\nfresh: %+v, %s, %d ops\nwarm:  %+v, %s, %d ops",
			what, fresh.reports, fresh.err, fresh.n, warm.reports, warm.err, warm.n)
	}
	requireSameSnapshot(t, what, fresh.snap, warm.snap)
}

func requireSameSnapshot(t testing.TB, what string, fresh, warm obs.Snapshot) {
	t.Helper()
	if len(fresh.Counters) != len(warm.Counters) || !reflect.DeepEqual(fresh.Gauges, warm.Gauges) ||
		!reflect.DeepEqual(fresh.Histograms, warm.Histograms) {
		t.Fatalf("%s: snapshot diverged:\nfresh: %v\nwarm:  %v", what, fresh, warm)
	}
	for key, n := range fresh.Counters {
		if got, ok := warm.Counters[key]; !ok || got > n || key != "vc.grows" && got != n {
			t.Fatalf("%s: counter %s = %d on a recycled state, %d on a fresh one", what, key, got, n)
		}
	}
}

// TestRecycledCheckMatchesFresh sends a fixed sequence of inputs — hostile
// ids, Go-sync kinds, sampling, report caps, an infeasible op mid-stream,
// a decode error, an operation budget exceeded, every variant — through
// one recycled state, and holds each check to the same check on a fresh
// state, through both entry points.
func TestRecycledCheckMatchesFresh(t *testing.T) {
	header := []byte("VFTb\x02")
	binary := func(tr trace.Trace) []byte { return append(header, encodeRecords(t, tr)...) }
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 400
	ext := cfg.Extensions()
	gen := func(seed int64) trace.Trace { return trace.Generate(rand.New(rand.NewSource(seed)), cfg) }
	pol := &sample.Policy{Rate: 0.5, Seed: 3}
	var text bytes.Buffer
	if err := trace.Encode(&text, gen(5)); err != nil {
		t.Fatal(err)
	}

	type input struct {
		name  string
		data  []byte
		ext   *trace.Extensions
		limit int
		opts  Options
	}
	inputs := []input{
		{name: "hostile", data: binary(hostileGoSync)},
		{name: "go-sync", data: binary(gen(1)), ext: ext},
		{name: "hostile capped", data: binary(hostileGoSync), opts: Options{MaxReportsPerVar: 1}},
		{name: "go-sync sampled", data: binary(gen(2)), ext: ext, opts: Options{Sampling: pol}},
		{name: "go-sync capped and sampled", data: binary(gen(3)), ext: ext, opts: Options{MaxReportsPerVar: 1, Sampling: pol}},
		{name: "infeasible mid-stream", data: binary(append(gen(4)[:200:200],
			trace.Acq(0, 0), trace.Acq(0, 0), trace.Wr(0, 1)))},
		{name: "decode error", data: append(binary(gen(6)), 3, 0, 0x80), ext: ext},
		{name: "too long", data: binary(gen(7)), ext: ext, limit: 64},
		{name: "text", data: text.Bytes(), ext: ext},
		{name: "text syntax error", data: append(text.Bytes(), "rd 0\n"...), ext: ext},
	}
	for i, variant := range core.Variants() {
		inputs = append(inputs, input{name: variant, data: binary(gen(10 + int64(i))), ext: ext, opts: Options{Variant: variant}})
	}
	inputs = append(inputs, input{name: "hostile again", data: binary(hostileGoSync)})

	st := dirtied(t)
	_, rejected := st.front.Vars()
	if _, spilled := st.front.Named(0, 2000000000); rejected == 0 || !spilled || len(st.m.Reports()) == 0 {
		t.Fatalf("the hostile trace left %d rejected variables, spilled variable named %v, reports %v; the fuzz targets need all three",
			rejected, spilled, st.m.Reports())
	}
	warm := new(checkState)
	for _, in := range inputs {
		for _, pull := range []bool{false, true} {
			if pull && !bytes.HasPrefix(in.data, header) {
				continue // the pull pipeline reads the binary format only
			}
			var fresh, recycled outcome
			onState(new(checkState), func() { fresh = checkBytes(t, in.data, in.ext, in.limit, in.opts, pull) })
			onState(warm, func() { recycled = checkBytes(t, in.data, in.ext, in.limit, in.opts, pull) })
			requireSameOutcome(t, fmt.Sprintf("%s (pull %v)", in.name, pull), fresh, recycled)
		}
	}
}

// TestWarmCheckAllocations: a default-variant check of a binary trace on a
// recycled state allocates only what does not grow with the trace — the
// decoder, the validator and lowerer — and so the same at 6k ops as at
// 600k.
func TestWarmCheckAllocations(t *testing.T) {
	var counts []float64
	warm := new(checkState)
	for _, rounds := range []int{48, 4838} { // 6,014 and 599,974 ops
		tr := stripedTrace(32, 64, rounds)
		var buf bytes.Buffer
		if err := trace.EncodeBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		check := func() {
			src, err := trace.NewDecoder(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if reports, _, err := CheckSource(src, nil, Options{}); err != nil || len(reports) != 0 {
				t.Fatal(reports, err)
			}
		}
		onState(warm, func() {
			check()
			counts = append(counts, testing.AllocsPerRun(3, check))
		})
	}
	if counts[0] != counts[1] || counts[1] > 32 {
		t.Errorf("a warm check allocates %v times at 6k ops and %v at 600k; want the same, at most 32", counts[0], counts[1])
	}
}

// TestResetIsBounded: a reset clears only the id-map entries the previous
// check set, so a small check after one that named thread 65000 and
// variable 2000000000 pays for the two threads and one variable named, not
// for the thread table that tid grew or for the variable id's magnitude.
func TestResetIsBounded(t *testing.T) {
	hostile := trace.Trace{trace.ForkOp(0, 65000), trace.Wr(65000, 2000000000), trace.Wr(0, 2000000000)}
	small := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0)}
	lowered := func(tr trace.Trace) trace.Source {
		return trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
	}
	st := new(checkState)
	onState(st, func() {
		if _, err := Check(lowered(hostile), Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Thread 65000 is inside the tables' dense window, variable 2000000000
	// past it: the check grew the dense thread table and spilled the variable.
	if thread, variable := st.front.Named(65000, 2000000000); !thread || !variable {
		t.Fatalf("the hostile check left thread 65000 named %v and variable 2000000000 named %v; the test needs both named",
			thread, variable)
	}
	if n := st.front.Reset(); n > 3 {
		t.Errorf("reset cleared %d entries after a check that named 3 ids", n)
	}
	var want, got []core.Report
	onState(new(checkState), func() { want, _ = Check(lowered(small), Options{}) })
	onState(st, func() { got, _ = Check(lowered(small), Options{}) })
	if len(want) != 1 {
		t.Fatalf("fresh check of %v: reports %v, want one race", small, want)
	}
	requireEqualReports(t, want, got, "after a reset")
}
