package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
)

// These tests exercise the detectors under the RoadRunner concurrency model
// with real goroutines: handlers run inline in the acting goroutine and
// race against each other. Run with -race: the Go race detector then checks
// the §4/§5 synchronization disciplines for us — an executable stand-in for
// part of what the CIVL proof establishes (the rest is in
// internal/reduction).

// stressHarness couples real synchronization (mutexes, goroutine
// start/join) with the corresponding detector handlers, the way the rtsim
// package does for full programs.
type stressHarness struct {
	d     Detector
	locks []sync.Mutex
}

func (h *stressHarness) lock(t epoch.Tid, m trace.Lock) {
	h.locks[m].Lock()
	h.d.Acquire(t, m)
}

func (h *stressHarness) unlock(t epoch.Tid, m trace.Lock) {
	h.d.Release(t, m)
	h.locks[m].Unlock()
}

// TestConcurrentRaceFreeWorkload runs a race-free program hard against
// every detector: thread-disjoint churn (same-epoch paths), lock-protected
// shared counters (exclusive paths), and a heavily read-shared table (the
// v2 fast path operating concurrently, which is exactly the code the §5
// discipline exists for). No detector may report anything.
func TestConcurrentRaceFreeWorkload(t *testing.T) {
	const (
		workers = 8
		iters   = 400
		nLocked = 4   // lock-protected variables
		nShared = 16  // read-shared variables
		varBase = 100 // private variables start here, one block per worker
	)
	for _, name := range Variants() {
		name := name
		t.Run(name, func(t *testing.T) {
			d := newDetector(t, name)
			h := &stressHarness{d: d, locks: make([]sync.Mutex, nLocked)}

			// Main (thread 0) initializes the shared table, then forks.
			for x := 0; x < nShared; x++ {
				d.Write(0, trace.Var(10+x))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				tid := epoch.Tid(w + 1)
				d.Fork(0, tid)
				wg.Add(1)
				go func() {
					defer wg.Done()
					priv := trace.Var(varBase + int(tid)*8)
					for i := 0; i < iters; i++ {
						// Thread-local churn: same-epoch heavy.
						d.Write(tid, priv)
						d.Read(tid, priv)
						d.Read(tid, priv)
						// Read-shared table scan: exercises the Share
						// transition and the lock-free shared fast path.
						for x := 0; x < nShared; x++ {
							d.Read(tid, trace.Var(10+x))
						}
						// Lock-protected shared counter.
						m := trace.Lock(i % nLocked)
						h.lock(tid, m)
						d.Read(tid, trace.Var(int(m)))
						d.Write(tid, trace.Var(int(m)))
						h.unlock(tid, m)
					}
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				d.Join(0, epoch.Tid(w+1))
			}
			if reports := d.Reports(); len(reports) != 0 {
				t.Fatalf("false positives on race-free workload: %v", reports[:min(4, len(reports))])
			}
		})
	}
}

// TestConcurrentRacyWorkload runs an intentionally racy program (unlocked
// writers to one variable) and requires every detector to catch it.
// Whichever interleaving the scheduler picks contains a real race, so a
// report is guaranteed for a precise analysis.
func TestConcurrentRacyWorkload(t *testing.T) {
	const workers = 4
	for _, name := range Variants() {
		name := name
		t.Run(name, func(t *testing.T) {
			d := newDetector(t, name)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				tid := epoch.Tid(w + 1)
				d.Fork(0, tid)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						d.Write(tid, 7) // no lock: races with the other workers
						d.Read(tid, 7)
						runtime.Gosched()
					}
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				d.Join(0, epoch.Tid(w+1))
			}
			reports := d.Reports()
			if len(reports) == 0 {
				t.Fatal("racy workload produced no reports")
			}
			for _, r := range reports {
				if r.X != 7 {
					t.Fatalf("report on wrong variable: %v", r)
				}
			}
		})
	}
}

// TestConcurrentShareTransitionStorm hammers the Read Share transition: a
// batch of threads concurrently performs first reads of a block of fresh
// variables previously written by main, so Share transitions, vector
// resizes and lock-free shared reads all overlap. Checks both no false
// positives and — via -race — the discipline around the vector pointer.
func TestConcurrentShareTransitionStorm(t *testing.T) {
	const (
		workers = 8
		nVars   = 64
		rounds  = 50
	)
	for _, name := range []string{"vft-v1.5", "vft-v2", "ft-mutex", "ft-cas"} {
		name := name
		t.Run(name, func(t *testing.T) {
			d := newDetector(t, name)
			for x := 0; x < nVars; x++ {
				d.Write(0, trace.Var(x))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				tid := epoch.Tid(w + 1)
				d.Fork(0, tid)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for x := 0; x < nVars; x++ {
							d.Read(tid, trace.Var(x))
						}
					}
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				d.Join(0, epoch.Tid(w+1))
			}
			if reports := d.Reports(); len(reports) != 0 {
				t.Fatalf("false positives: %v", reports[:min(4, len(reports))])
			}
			// After each worker's first read of a variable, every later
			// read is a same-epoch fast path: [Read Shared Same Epoch]
			// once the variable is Shared, or [Read Same Epoch] for a
			// worker that re-reads before the Share transition. The split
			// is scheduling-dependent; the sum is not.
			counts := d.RuleCounts()
			fast := counts[spec.ReadSameEpoch] + counts[spec.ReadSharedSameEpoch]
			wantFast := uint64(workers * nVars * (rounds - 1))
			if fast < wantFast {
				t.Errorf("same-epoch fast paths = %d, want >= %d", fast, wantFast)
			}
			if counts[spec.ReadSharedSameEpoch] == 0 {
				t.Error("no ReadSharedSameEpoch at all; variables never shared?")
			}
		})
	}
}

// TestConcurrentLockHandoffChain passes a token around a ring of threads via
// locks; the protected variable is written by every thread but never races.
// This stresses Acquire/Release handler interleavings with Fork/Join.
func TestConcurrentLockHandoffChain(t *testing.T) {
	const workers = 6
	const rounds = 200
	for _, name := range Variants() {
		name := name
		t.Run(name, func(t *testing.T) {
			d := newDetector(t, name)
			h := &stressHarness{d: d, locks: make([]sync.Mutex, 1)}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				tid := epoch.Tid(w + 1)
				d.Fork(0, tid)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						h.lock(tid, 0)
						d.Read(tid, 0)
						d.Write(tid, 0)
						h.unlock(tid, 0)
					}
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				d.Join(0, epoch.Tid(w+1))
			}
			if reports := d.Reports(); len(reports) != 0 {
				t.Fatalf("false positives: %v", reports[:min(4, len(reports))])
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
