package core

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// kernelCase is one point of the exhaustive small-scope enumeration the
// kernel is checked over: a variable state, an acting thread with its
// clock, and an access kind.
type kernelCase struct {
	r, w  epoch.Epoch
	vec   [3]uint64 // read-vector clocks; meaningful only when r is Shared
	t     epoch.Tid
	clock [3]uint64
	write bool
}

func (c kernelCase) String() string {
	op := "rd"
	if c.write {
		op = "wr"
	}
	return fmt.Sprintf("%s(t%d) C=%v on R=%v W=%v V=%v", op, c.t, c.clock, c.r, c.w, c.vec)
}

// forEachKernelCase enumerates every variable state over 3 threads ×
// clocks 0..2 (R ∈ epochs ∪ {Shared}, W, and — when R is Shared — the read
// vector) × every acting thread and clock × {rd, wr}: 52,488 cases. The
// order is fixed; the golden table is indexed by it.
func forEachKernelCase(fn func(kernelCase)) {
	var rs []epoch.Epoch
	for t := 0; t < 3; t++ {
		for c := uint64(0); c < 3; c++ {
			rs = append(rs, epoch.Make(epoch.Tid(t), c))
		}
	}
	ws := rs
	rs = append(rs, epoch.Shared)
	for _, r := range rs {
		nvec := 1
		if r.IsShared() {
			nvec = 27
		}
		for _, w := range ws {
			for vi := 0; vi < nvec; vi++ {
				vec := [3]uint64{uint64(vi / 9), uint64(vi / 3 % 3), uint64(vi % 3)}
				for t := 0; t < 3; t++ {
					for ci := 0; ci < 27; ci++ {
						clock := [3]uint64{uint64(ci / 9), uint64(ci / 3 % 3), uint64(ci % 3)}
						for _, write := range []bool{false, true} {
							fn(kernelCase{r: r, w: w, vec: vec, t: epoch.Tid(t), clock: clock, write: write})
						}
					}
				}
			}
		}
	}
}

// kernelOutcome is what one kernel step did to a plain model of the
// variable: the counted rule, the evidence in emission order, and the
// state after applying the update.
type kernelOutcome struct {
	rule spec.Rule
	evs  []kernel.Evidence
	r, w epoch.Epoch
	v    kernel.ReadVec
}

// stepKernel runs the kernel on c and applies its update to a model state
// the way every wrapper does (vector entries before Shared, W last).
func stepKernel(c kernelCase, priorRead bool) kernelOutcome {
	o := kernelOutcome{r: c.r, w: c.w}
	if c.r.IsShared() {
		o.v = kernel.ReadVec{epoch.Make(0, c.vec[0]), epoch.Make(1, c.vec[1]), epoch.Make(2, c.vec[2])}
	}
	clock := kernel.ClockView(vc.FromClocks(c.clock[:]...).View())
	e := clock[c.t]
	var upd kernel.Update
	var race, race2 kernel.Evidence
	if c.write {
		o.rule, upd, race, race2 = kernel.StepWrite(o.r, o.w, e, o.v, clock)
	} else {
		o.rule, upd, race = kernel.StepRead(o.r, o.w, o.v.Get(c.t), e, clock, priorRead)
	}
	for _, ev := range []kernel.Evidence{race, race2} {
		if ev.Rule != spec.RuleNone {
			o.evs = append(o.evs, ev)
		}
	}
	switch upd {
	case kernel.SetR:
		o.r = e
	case kernel.Share:
		o.v = o.v.Set(o.r.Tid(), o.r).Set(c.t, e)
		o.r = epoch.Shared
	case kernel.SetOwn:
		o.v = o.v.Set(c.t, e)
	case kernel.SetW:
		o.w = e
	}
	return o
}

// token renders an outcome in the golden table's line format.
func (o kernelOutcome) token() string {
	var b strings.Builder
	b.WriteString(o.rule.Key())
	for _, ev := range o.evs {
		fmt.Fprintf(&b, " !%s:%v", ev.Rule.Key(), ev.Prev)
	}
	fmt.Fprintf(&b, " -> R=%v W=%v V=%v,%v,%v", o.r, o.w, o.v.Get(0), o.v.Get(1), o.v.Get(2))
	return b.String()
}

// TestKernelMatchesSpec is the kernel's functional-correctness gate, over
// the exhaustive enumeration of forEachKernelCase.
//
// VerifiedFT ordering (priorRead off): rule, first evidence and next state
// must equal internal/spec's Step from the same state. The specification
// stops at its first race, so on a race only the rule and its evidence are
// compared; the kernel's repair update is pinned by the golden arm.
//
// FT-baseline ordering (priorRead on): the outcome must equal, line for
// line, testdata/ftbaseline_steps.golden.gz — generated at commit 41f3746
// (the last with hand-written per-variant rule bodies) by driving that
// commit's FTMutex.Read/Write over this same enumeration from seeded
// shadow state, and cross-checked there against FTCAS.Read/Write, which
// agreed on every case. It pins all reports of a multi-race write and the
// post-race repair state, which the specification cannot.
func TestKernelMatchesSpec(t *testing.T) {
	t.Run("VerifiedFT=spec", func(t *testing.T) {
		n := 0
		forEachKernelCase(func(c kernelCase) {
			n++
			s := spec.NewState(spec.VerifiedFT)
			tc := s.Thread(c.t)
			for i, cl := range c.clock {
				tc.Set(epoch.Tid(i), epoch.Make(epoch.Tid(i), cl))
			}
			sx := s.Var(0)
			sx.R, sx.W = c.r, c.w
			if c.r.IsShared() {
				sx.V = vc.FromClocks(c.vec[:]...)
			}
			op := trace.Rd(c.t, 0)
			if c.write {
				op = trace.Wr(c.t, 0)
			}
			rule, raceErr := s.Step(op)
			got := stepKernel(c, false)
			if got.rule != rule {
				t.Fatalf("%v: kernel rule [%v], spec [%v]", c, got.rule, rule)
			}
			if raceErr != nil {
				if len(got.evs) == 0 || got.evs[0] != (kernel.Evidence{Rule: raceErr.Rule, Prev: raceErr.Prev}) {
					t.Fatalf("%v: kernel evidence %v, spec [%v] prior %v", c, got.evs, raceErr.Rule, raceErr.Prev)
				}
				return
			}
			if len(got.evs) != 0 {
				t.Fatalf("%v: kernel reports %v on a spec-race-free step", c, got.evs)
			}
			if got.r != sx.R || got.w != sx.W {
				t.Fatalf("%v: kernel next R=%v W=%v, spec R=%v W=%v", c, got.r, got.w, sx.R, sx.W)
			}
			for i := epoch.Tid(0); i < 3; i++ {
				if got.v.Get(i) != sx.V.Get(i) {
					t.Fatalf("%v: kernel next V[%d]=%v, spec %v", c, i, got.v.Get(i), sx.V.Get(i))
				}
			}
		})
		t.Logf("%d cases", n)
	})

	t.Run("priorRead=golden", func(t *testing.T) {
		f, err := os.Open("testdata/ftbaseline_steps.golden.gz")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(zr)
		n := 0
		forEachKernelCase(func(c kernelCase) {
			n++
			if !lines.Scan() {
				t.Fatalf("golden table ends at case %d (%v): %v", n, c, lines.Err())
			}
			if got, want := stepKernel(c, true).token(), lines.Text(); got != want {
				t.Fatalf("case %d, %v:\nkernel: %s\ngolden: %s", n, c, got, want)
			}
		})
		if lines.Scan() {
			t.Fatalf("golden table has lines past case %d", n)
		}
	})
}

// TestKernelZeroAllocs pins the kernel constraint behind the slow paths'
// allocation profile: deciding a rule allocates nothing, races included.
func TestKernelZeroAllocs(t *testing.T) {
	clock := kernel.ClockView(vc.FromClocks(1, 0, 0).View())
	vec := kernel.ReadVec{epoch.Make(0, 0), epoch.Make(1, 2), epoch.Make(2, 0)}
	e, racy := epoch.Make(0, 1), epoch.Make(1, 2)
	if n := testing.AllocsPerRun(100, func() {
		kernel.StepRead(racy, racy, 0, e, clock, false)
		kernel.StepRead(epoch.Shared, racy, vec.Get(0), e, clock, true)
		kernel.StepWrite(racy, racy, e, nil, clock)
		kernel.StepWrite(epoch.Shared, racy, e, vec, clock)
	}); n != 0 {
		t.Errorf("kernel steps allocate %.1f/op", n)
	}
}

// BenchmarkKernelSlowPath replays a trace on which every access takes a
// slow path (8 threads passing one lock around; exclusive writes and
// reads, one read-shared variable), per wrapper. It is the measurement
// behind the kernel's shape (EXPERIMENTS.md E23): ns per trace event.
func BenchmarkKernelSlowPath(b *testing.B) {
	var tr trace.Trace
	for u := epoch.Tid(1); u < 8; u++ {
		tr = append(tr, trace.ForkOp(0, u))
	}
	for r := 0; r < 2000; r++ {
		for t := epoch.Tid(0); t < 8; t++ {
			x := trace.Var(r % 64)
			tr = append(tr, trace.Acq(t, 0), trace.Wr(t, x), trace.Rd(t, x),
				trace.Rd(t, 100), trace.Wr(t, trace.Var(64+r%7)), trace.Rel(t, 0))
		}
	}
	for _, name := range []string{"vft-v1", "vft-v2", "ft-mutex", "ft-cas"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := New(name, Config{})
				if err != nil {
					b.Fatal(err)
				}
				Replay(d, tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr)), "ns/event")
		})
	}
}
