package core

import (
	"sync"
	"testing"

	"repro/internal/epoch"
	"repro/internal/sample"
	"repro/internal/trace"
)

func newSamplingForTest(t *testing.T, pol sample.Policy) *Sampling {
	t.Helper()
	inner, err := New("vft-v2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return NewSampling(inner, pol)
}

// raceTrace races thread 1 against thread 2 on every variable in xs, with
// the fork edge keeping the trace feasible but no synchronization between
// the accesses.
func raceTrace(xs ...trace.Var) trace.Trace {
	tr := trace.Trace{trace.ForkOp(0, 1), trace.ForkOp(0, 2)}
	for _, x := range xs {
		tr = append(tr, trace.Wr(1, x), trace.Wr(2, x))
	}
	return tr
}

func TestSamplingReportTranslation(t *testing.T) {
	// Rate 1: every raced variable reports, under its original id, even
	// when the original ids are far above the dense inner space.
	d := newSamplingForTest(t, sample.Policy{Rate: 1, Seed: 1})
	xs := []trace.Var{5, 9000, 123456}
	reports := Replay(d, raceTrace(xs...))
	if len(reports) != len(xs) {
		t.Fatalf("got %d reports, want %d: %+v", len(reports), len(xs), reports)
	}
	for i, r := range reports {
		if r.X != xs[i] {
			t.Fatalf("report %d: X = %d, want original id %d", i, r.X, xs[i])
		}
		if r.Detector != "vft-v2" {
			t.Fatalf("report %d: detector %q, want inner name vft-v2", i, r.Detector)
		}
	}
}

func TestSamplingSuppression(t *testing.T) {
	// Rate 0: the same races produce no reports, and every access lands
	// in the suppressed tallies instead.
	d := newSamplingForTest(t, sample.Policy{Rate: 0, Seed: 1})
	tr := raceTrace(1, 2, 3)
	tr = append(tr, trace.Rd(1, 1))
	if reports := Replay(d, tr); len(reports) != 0 {
		t.Fatalf("rate 0 reported: %+v", reports)
	}
	reads, writes := d.SuppressedAccesses()
	if reads != 1 || writes != 6 {
		t.Fatalf("SuppressedAccesses() = %d, %d; want 1, 6", reads, writes)
	}
	if sampled, suppressed := d.Counts(); sampled != 0 || suppressed != 3 {
		t.Fatalf("Counts() = %d, %d; want 0, 3", sampled, suppressed)
	}
}

func TestSamplingName(t *testing.T) {
	d := newSamplingForTest(t, sample.Policy{Rate: 0.5, Seed: 1})
	if d.Name() != "vft-v2" {
		t.Fatalf("Name() = %q, want the inner variant's name", d.Name())
	}
}

func TestSamplingStats(t *testing.T) {
	d := newSamplingForTest(t, sample.Policy{Rate: 0, Seed: 1})
	Replay(d, raceTrace(1, 2))
	s := d.Stats()
	if s.Counters["sampling.suppressed_writes"] != 4 {
		t.Fatalf("suppressed_writes = %d, want 4", s.Counters["sampling.suppressed_writes"])
	}
	if s.Gauges["sampling.vars.suppressed"] != 2 || s.Gauges["sampling.vars.sampled"] != 0 {
		t.Fatalf("vars gauges = %d sampled, %d suppressed; want 0, 2",
			s.Gauges["sampling.vars.sampled"], s.Gauges["sampling.vars.suppressed"])
	}
	if s.Gauges["sampling.rate_ppm"] != 0 {
		t.Fatalf("rate_ppm = %d, want 0", s.Gauges["sampling.rate_ppm"])
	}
	if s.Gauges["sampling.effective_rate_ppm"] != 0 {
		t.Fatalf("effective_rate_ppm = %d, want 0", s.Gauges["sampling.effective_rate_ppm"])
	}
	if s.Gauges["sampling.words.bytes"] == 0 {
		t.Fatal("words.bytes gauge missing")
	}
	if d.ShadowBytes() == 0 {
		t.Fatal("ShadowBytes() = 0")
	}
}

func TestRatePPM(t *testing.T) {
	cases := map[float64]uint64{0: 0, -1: 0, 1: 1_000_000, 2: 1_000_000, 0.01: 10_000}
	for rate, want := range cases {
		if got := RatePPM(rate); got != want {
			t.Fatalf("RatePPM(%v) = %d, want %d", rate, got, want)
		}
	}
}

// TestSamplingConcurrentSuppressed drives suppressed accesses from many
// goroutines under the race detector — one tid per goroutine, matching
// the owner-written discipline of the per-thread counter slots. Decision
// words are shared and decided concurrently; the tallies must come out
// exact.
func TestSamplingConcurrentSuppressed(t *testing.T) {
	d := newSamplingForTest(t, sample.Policy{Rate: 0, Seed: 1})
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(tid epoch.Tid) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := trace.Var(i % 512)
				d.Read(tid, x)
				d.Write(tid, x)
			}
		}(epoch.Tid(g))
	}
	wg.Wait()
	reads, writes := d.SuppressedAccesses()
	if reads != workers*per || writes != workers*per {
		t.Fatalf("SuppressedAccesses() = %d, %d; want %d each", reads, writes, workers*per)
	}
}
