package verifiedft_test

// One benchmark per artifact of the paper's evaluation:
//
//	BenchmarkTable1            — §8 Table 1: every program × every detector
//	                             (run cmd/vft-bench for the formatted table
//	                             with overheads and the geo-mean line)
//	BenchmarkFigure1           — the Fig. 1 example trace through the spec
//	BenchmarkWriteSharedThrash — §3 ablation: VerifiedFT vs original
//	                             FastTrack [Write Shared] (E5)
//	BenchmarkJoinIncrement     — §3 ablation: the dropped [Join] increment (E6)
//	BenchmarkFastPathLatency   — per-access cost of the three lock-free
//	                             rules across detector variants
//	BenchmarkReadSharedScaling — the contended read-shared pattern that
//	                             separates v2 from v1/v1.5 (§5, §8)

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/rtsim"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchDetectors are Table 1's columns.
var benchDetectors = []string{"base", "ft-mutex", "ft-cas", "vft-v1", "vft-v1.5", "vft-v2"}

// BenchmarkTable1 runs every (program, detector) cell of Table 1, plus a
// "base" column (no detector). Overhead for a cell is its ns/op divided by
// the base ns/op minus one. Test sizes are used so `go test -bench .`
// stays minutes, not hours; cmd/vft-bench runs the full sizes.
func BenchmarkTable1(b *testing.B) {
	for _, w := range workloads.All() {
		for _, det := range benchDetectors {
			b.Run(fmt.Sprintf("%s/%s", w.Name, det), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var d core.Detector
					if det != "base" {
						var err error
						d, err = core.New(det, core.Config{})
						if err != nil {
							b.Fatal(err)
						}
					}
					rt := rtsim.New(d)
					w.Run(rt, w.TestSize)
					if d != nil && len(d.Reports()) != 0 {
						b.Fatalf("race reported on race-free workload %s", w.Name)
					}
				}
			})
		}
	}
}

// BenchmarkFigure1 replays the Fig. 1 example (plus its race) through the
// specification interpreter.
func BenchmarkFigure1(b *testing.B) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Acq(0, 0), trace.Wr(0, 0), trace.Rel(0, 0),
		trace.Acq(1, 0), trace.Rd(1, 0), trace.Rel(1, 0),
		trace.Rd(0, 0),
		trace.Wr(0, 0), // the Fig. 1 race
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := spec.Run(spec.VerifiedFT, tr)
		if res.RaceAt != len(tr)-1 {
			b.Fatal("Fig. 1 race not detected at the final write")
		}
	}
}

// BenchmarkWriteSharedThrash is the E5 ablation: a variable oscillating
// between read-shared reads and writes. The original FastTrack [Write
// Shared] rule resets R to ⊥e, so every post-write read re-runs the Share
// transition ("thrash", §3); VerifiedFT keeps R = Shared and answers those
// reads with the O(1) shared fast path.
func BenchmarkWriteSharedThrash(b *testing.B) {
	mkTrace := func(rounds int) trace.Trace {
		tr := trace.Trace{trace.ForkOp(0, 1)}
		for r := 0; r < rounds; r++ {
			// Both threads read x under no ordering conflict... the reads
			// must be concurrent to keep x Shared, then an ordered write.
			tr = append(tr,
				trace.Rd(0, 0),
				trace.Acq(1, 0), trace.Rd(1, 0), trace.Rel(1, 0),
				// Thread 0 synchronizes with 1 through the lock, then
				// writes: the write is ordered after both reads.
				trace.Acq(0, 0), trace.Wr(0, 0), trace.Rel(0, 0),
				trace.Acq(1, 0), trace.Rel(1, 0),
			)
		}
		return tr
	}
	tr := mkTrace(200)
	trace.MustValidate(tr)
	for _, flavor := range []spec.Flavor{spec.VerifiedFT, spec.FastTrackOrig} {
		flavor := flavor
		b.Run(flavor.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := spec.Run(flavor, tr); res.RaceAt != -1 {
					b.Fatalf("thrash trace raced: %v", res.Err)
				}
			}
		})
	}
}

// BenchmarkJoinIncrement is the E6 ablation: a fork/join-heavy trace under
// both [Join] rules. The dropped increment is about simplifying the
// synchronization discipline, not speed, so the interesting output is that
// the two arms are equivalent in verdicts and nearly identical in time.
func BenchmarkJoinIncrement(b *testing.B) {
	// A fork/join ladder: fork u, u works, join u, read u's data.
	var tr trace.Trace
	next := epoch.Tid(1)
	for round := 0; round < 100; round++ {
		u := next
		next++
		tr = append(tr,
			trace.ForkOp(0, u),
			trace.Wr(u, trace.Var(round%8)),
			trace.JoinOp(0, u),
			trace.Rd(0, trace.Var(round%8)),
		)
	}
	trace.MustValidate(tr)
	for _, flavor := range []spec.Flavor{spec.VerifiedFT, spec.FastTrackOrig} {
		flavor := flavor
		b.Run(flavor.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := spec.Run(flavor, tr); res.RaceAt != -1 {
					b.Fatalf("join ladder raced: %v", res.Err)
				}
			}
		})
	}
}

// BenchmarkFastPathLatency measures the per-access cost of each lock-free
// rule on each detector — the microscopic version of Table 1's story.
// Allocations are reported: the fast paths must show 0 allocs/op (pinned
// by TestFastPathZeroAllocs in internal/core).
func BenchmarkFastPathLatency(b *testing.B) {
	cfg := core.Config{}
	for _, det := range []string{"vft-v1", "vft-v1.5", "vft-v2", "ft-mutex", "ft-cas", "djit"} {
		det := det
		b.Run("ReadSameEpoch/"+det, func(b *testing.B) {
			d, err := core.New(det, cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.Read(0, 1) // prime: R = 0@1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Read(0, 1)
			}
		})
		b.Run("WriteSameEpoch/"+det, func(b *testing.B) {
			d, err := core.New(det, cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.Write(0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(0, 1)
			}
		})
		b.Run("ReadSharedSameEpoch/"+det, func(b *testing.B) {
			d, err := core.New(det, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Drive x into Shared: reads by two concurrent threads.
			d.Fork(0, 1)
			d.Read(0, 1)
			d.Read(1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Read(1, 1)
			}
		})
		b.Run("ReacquireJoin/"+det, func(b *testing.B) {
			d, err := core.New(det, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Steady-state lock cycle by one thread: the acquire's join
			// argument is entirely covered, so it writes nothing.
			d.Acquire(0, 3)
			d.Release(0, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Acquire(0, 3)
				d.Release(0, 3)
			}
		})
	}
}

// BenchmarkReadSharedScaling runs N goroutines hammering one read-shared
// variable — the §5 pattern where v1/v1.5 serialize on the variable lock
// while v2 scales. The per-op numbers across detectors are the crossover
// Table 1 shows on sparse and sunflow.
func BenchmarkReadSharedScaling(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if workers < 2 {
		// With one worker the variable never leaves the exclusive state
		// and the bench would silently measure [Read Same Epoch]; two
		// goroutines time-slicing still exercise the Shared fast path.
		workers = 2
	}
	for _, det := range []string{"vft-v1", "vft-v1.5", "vft-v2", "ft-mutex", "ft-cas"} {
		det := det
		b.Run(det, func(b *testing.B) {
			d, err := core.New(det, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			// Share the variable among all workers first.
			for w := 0; w < workers; w++ {
				d.Fork(0, epoch.Tid(w+1))
			}
			for w := 0; w < workers; w++ {
				d.Read(epoch.Tid(w+1), 1)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			for w := 0; w < workers; w++ {
				tid := epoch.Tid(w + 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						d.Read(tid, 1)
					}
				}()
			}
			wg.Wait()
			if len(d.Reports()) != 0 {
				b.Fatal("false positive on read-shared benchmark")
			}
		})
	}
}

// BenchmarkCheckTrace measures the end-to-end public API on generated
// traces.
func BenchmarkCheckTrace(b *testing.B) {
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Acquire(0, 0), verifiedft.Write(0, 0), verifiedft.Release(0, 0),
		verifiedft.Acquire(1, 0), verifiedft.Read(1, 0), verifiedft.Release(1, 0),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := verifiedft.CheckTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}
