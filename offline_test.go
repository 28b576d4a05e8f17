package verifiedft

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/trace"
)

// TestWithParallelismIsInert: WithParallelism is kept for the frozen
// benchmark's sake and selects nothing. For any n the check returns the
// reports — Seq numbering included — of a check without the option, and a
// WithMetrics registry receives the same sources under the same names.
func TestWithParallelismIsInert(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 400
	keys := func(m *Metrics) []string {
		s := m.Snapshot()
		var ks []string
		for k := range s.Counters {
			ks = append(ks, "counter "+k)
		}
		for k := range s.Gauges {
			ks = append(ks, "gauge "+k)
		}
		for k := range s.Histograms {
			ks = append(ks, "histogram "+k)
		}
		sort.Strings(ks)
		return ks
	}
	for seed := int64(0); seed < 4; seed++ {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		for _, variant := range []string{V2, FTCAS, DJIT} {
			wantM := NewMetrics()
			want, err := CheckTrace(tr, WithVariant(variant), WithMetrics(wantM))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, variant, err)
			}
			wantKeys := keys(wantM)
			for i, r := range want {
				if r.Seq != i {
					t.Fatalf("seed %d %s: report %d carries Seq %d", seed, variant, i, r.Seq)
				}
			}
			for _, n := range []int{-1, 0, 1, 2, 8} {
				gotM := NewMetrics()
				got, err := CheckTrace(tr, WithVariant(variant), WithMetrics(gotM), WithParallelism(n))
				if err != nil {
					t.Fatalf("seed %d %s WithParallelism(%d): %v", seed, variant, n, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("seed %d %s: WithParallelism(%d) changed the reports:\nwithout: %+v\nwith:    %+v",
						seed, variant, n, want, got)
				}
				if g := keys(gotM); !reflect.DeepEqual(wantKeys, g) {
					t.Errorf("seed %d %s: WithParallelism(%d) changed the metrics key set:\nwithout: %v\nwith:    %v",
						seed, variant, n, wantKeys, g)
				}
			}
		}
	}
}

// TestParallelInfeasibleTrace: WithParallelism is inert on the error path
// too — an infeasible trace yields an error and no reports, with the
// option or without.
func TestParallelInfeasibleTrace(t *testing.T) {
	tr := Trace{Acquire(0, 0), Acquire(1, 0)} // lock already held
	for name, opts := range map[string][]CheckOption{"without": nil, "with": {WithParallelism(4)}} {
		reports, err := CheckTrace(tr, opts...)
		if err == nil {
			t.Fatalf("%s the option: want error", name)
		}
		if reports != nil {
			t.Fatalf("%s the option: want nil reports on error, got %+v", name, reports)
		}
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
// pipeline, where it used to panic.
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
		reports, err := CheckReader(strings.NewReader(tc.input), WithVariant(tc.variant))
		var re *trace.TidRangeError
		if !errors.As(err, &re) || re.Index != tc.index || re.Tid != tc.tid || re.Max != tc.max {
			t.Errorf("%s: err = %v, want *TidRangeError at #%d for tid %d (max %d)",
				tc.name, err, tc.index, tc.tid, tc.max)
		}
		if reports != nil {
			t.Errorf("%s: want nil reports on error, got %+v", tc.name, reports)
		}
	}
	// The same 300 threads are an ordinary race under a 16-bit variant.
	reports, err := CheckReader(strings.NewReader(ftcas300()), WithVariant(FTMutex))
	if err != nil || len(reports) != 1 {
		t.Errorf("ft-mutex on 300 threads: %d reports, err %v; want the one write-write race", len(reports), err)
	}
}

// releaseStream is acq 0 0 / rel 0 0 repeated pairs times, then wr 0 0,
// made as it is read: main's clock ticks once per release and never
// resets, and the stream is never held in memory.
type releaseStream struct{ pairs, next int }

func (s *releaseStream) op(i int) (Op, error) {
	switch {
	case i < 2*s.pairs && i%2 == 0:
		return Acquire(0, 0), nil
	case i < 2*s.pairs:
		return Release(0, 0), nil
	case i == 2*s.pairs:
		return Write(0, 0), nil
	}
	return Op{}, io.EOF
}

func (s *releaseStream) Next() (Op, error) {
	op, err := s.op(s.next)
	if err == nil {
		s.next++
	}
	return op, err
}

func (s *releaseStream) NextBatch(buf []Op) (int, error) {
	for n := range buf {
		op, err := s.op(s.next)
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		buf[n] = op
		s.next++
	}
	return len(buf), nil
}

// TestFTCASClockCeilingIsTypedError: FT-CAS packs a 24-bit clock into its
// epochs, so main's (2^24-1)-th release, which would take its clock from
// 2^24-1 to 2^24, ends the check with a positioned *trace.ClockRangeError
// where the detector used to panic on the next access. A 48-bit-clock
// variant checks the same stream clean.
func TestFTCASClockCeilingIsTypedError(t *testing.T) {
	const pairs = 1 << 24
	t.Run(FTCAS, func(t *testing.T) {
		t.Parallel()
		reports, err := CheckSource(&releaseStream{pairs: pairs}, WithVariant(FTCAS))
		index := 2*core.MaxClock32 - 1 // the release that would make main's clock MaxClock32+1
		var ce *trace.ClockRangeError
		if !errors.As(err, &ce) || ce.Index != index || ce.Op != Release(0, 0) || ce.Tid != 0 || ce.Max != core.MaxClock32 {
			t.Errorf("err = %v, want *ClockRangeError at #%d for thread 0 (max %d)", err, index, core.MaxClock32)
		}
		if reports != nil {
			t.Errorf("want nil reports on error, got %+v", reports)
		}
	})
	t.Run(FTMutex, func(t *testing.T) {
		t.Parallel()
		if reports, err := CheckSource(&releaseStream{pairs: pairs}, WithVariant(FTMutex)); err != nil || len(reports) != 0 {
			t.Errorf("%v, %v; want a clean check", reports, err)
		}
	})
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
