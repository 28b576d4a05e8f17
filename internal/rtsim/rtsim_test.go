package rtsim

import (
	"sync"
	"testing"

	"repro/internal/core"
)

func detectors(t *testing.T) []core.Detector {
	t.Helper()
	var out []core.Detector
	for _, name := range core.Variants() {
		d, err := core.New(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

func TestBaseRunHasNoDetector(t *testing.T) {
	rt := New(nil)
	m := rt.Main()
	x := rt.NewVar()
	x.Store(m, 41)
	if got := x.Load(m); got != 41 {
		t.Fatalf("Load = %d", got)
	}
	if rt.Reports() != nil {
		t.Fatal("base run produced reports")
	}
	if rt.Detector() != nil {
		t.Fatal("base run has a detector")
	}
}

func TestIdentitiesAreDistinct(t *testing.T) {
	rt := New(nil)
	a, b := rt.NewVar(), rt.NewVar()
	if a.ID() == b.ID() {
		t.Fatal("variable ids collide")
	}
	arr := rt.NewArray(4)
	if arr.ID(0) == arr.ID(3) || arr.ID(3) != arr.ID(0)+3 {
		t.Fatal("array ids not consecutive")
	}
	if arr.ID(0) <= b.ID() && b.ID() <= arr.ID(arr.Len()-1) {
		t.Fatal("array ids overlap scalar var ids")
	}
	m1, m2 := rt.NewMutex(), rt.NewMutex()
	if m1.ID() == m2.ID() {
		t.Fatal("lock ids collide")
	}
}

func TestRacyProgramIsCaught(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		x := rt.NewVar()
		c := main.Go(func(w *Thread) {
			for i := 0; i < 50; i++ {
				x.Store(w, int64(i))
			}
		})
		for i := 0; i < 50; i++ {
			x.Store(main, int64(-i))
		}
		main.Join(c)
		if len(rt.Reports()) == 0 {
			t.Errorf("%s: unsynchronized writers not reported", d.Name())
		}
	}
}

func TestLockedProgramIsClean(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		x := rt.NewVar()
		mu := rt.NewMutex()
		main.Parallel(4, func(w *Thread, i int) {
			for n := 0; n < 100; n++ {
				mu.Lock(w)
				x.Add(w, 1)
				mu.Unlock(w)
			}
		})
		if reports := rt.Reports(); len(reports) != 0 {
			t.Errorf("%s: false positives: %v", d.Name(), reports[0])
		}
		if got := x.Load(main); got != 400 {
			t.Errorf("%s: counter = %d, want 400 (target semantics broken)", d.Name(), got)
		}
	}
}

func TestForkJoinOrdering(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		x := rt.NewVar()
		x.Store(main, 1) // before fork: visible to child
		c := main.Go(func(w *Thread) {
			x.Add(w, 1)
		})
		main.Join(c)
		x.Add(main, 1) // after join: ordered after child
		if reports := rt.Reports(); len(reports) != 0 {
			t.Errorf("%s: fork/join false positive: %v", d.Name(), reports[0])
		}
		if got := x.Load(main); got != 3 {
			t.Errorf("%s: value = %d", d.Name(), got)
		}
	}
}

func TestVolatilePublication(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		data := rt.NewVar()
		flag := rt.NewVolatile()
		reader := main.Go(func(w *Thread) {
			// Spin until the writer publishes; every iteration re-checks
			// the volatile, as a Java reader would.
			for flag.Load(w) == 0 {
			}
			data.Load(w) // ordered after the writer's store via the volatile
		})
		data.Store(main, 42)
		flag.Store(main, 1)
		main.Join(reader)
		if reports := rt.Reports(); len(reports) != 0 {
			t.Errorf("%s: volatile publication false positive: %v", d.Name(), reports[0])
		}
	}
}

func TestVolatileDoesNotOrderUnrelatedData(t *testing.T) {
	// A volatile touched by both threads does NOT excuse a race on data
	// accessed before the volatile in one thread and after it in neither.
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		data := rt.NewVar()
		flag := rt.NewVolatile()
		c := main.Go(func(w *Thread) {
			data.Store(w, 1) // racy: nothing orders this
			flag.Load(w)
		})
		flag.Load(main)
		data.Store(main, 2) // may or may not race depending on schedule —
		main.Join(c)
		_ = rt.Reports() // just exercise; verdict is schedule-dependent
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	const workers = 4
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		arr := rt.NewArray(workers)
		bar := rt.NewBarrier(workers)
		main.Parallel(workers, func(w *Thread, i int) {
			for round := 0; round < 5; round++ {
				arr.Store(w, i, int64(round)) // phase 1: disjoint writes
				bar.Await(w)
				arr.Load(w, (i+1)%workers) // phase 2: read a neighbour
				bar.Await(w)
			}
		})
		if reports := rt.Reports(); len(reports) != 0 {
			t.Errorf("%s: barrier false positive: %v", d.Name(), reports[0])
		}
	}
}

func TestBarrierRequiresParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(nil).NewBarrier(0)
}

func TestParallelAssignsDistinctThreads(t *testing.T) {
	rt := New(nil)
	var mu sync.Mutex
	seen := map[int32]bool{}
	rt.Main().Parallel(8, func(w *Thread, i int) {
		mu.Lock()
		seen[int32(w.ID())] = true
		mu.Unlock()
	})
	if len(seen) != 8 {
		t.Fatalf("distinct tids = %d, want 8", len(seen))
	}
	if seen[0] {
		t.Fatal("worker got the main thread's tid")
	}
}

// Nested fork trees must keep identities and ordering straight.
func TestNestedForkTree(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		x := rt.NewVar()
		x.Store(main, 1)
		child := main.Go(func(c *Thread) {
			x.Add(c, 1)
			grand := c.Go(func(g *Thread) {
				x.Add(g, 1)
			})
			c.Join(grand)
			x.Add(c, 1)
		})
		main.Join(child)
		x.Add(main, 1)
		if reports := rt.Reports(); len(reports) != 0 {
			t.Errorf("%s: nested fork/join false positive: %v", d.Name(), reports[0])
		}
		if got := x.Load(main); got != 5 {
			t.Errorf("%s: value = %d, want 5", d.Name(), got)
		}
	}
}

// TestSyncDenseKernelKeepsClocksConfined runs a sync-dense kernel — a
// dozen workers taking turns on striped mutexes, each forking and joining
// helpers of its own along the way — for the Go race detector to watch
// (`go test -race`). vc.Join stores every entry it scans whether or not
// the entry advances, so a clock that were joined into while another
// goroutine could read it would be reported as a data race here, even on a
// join that changes nothing. The kernel itself is race-free.
func TestSyncDenseKernelKeepsClocksConfined(t *testing.T) {
	const workers, stripes, rounds = 12, 8, 200
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		cells := rt.NewArray(stripes)
		locks := make([]*Mutex, stripes)
		for i := range locks {
			locks[i] = rt.NewMutex()
		}
		bump := func(w *Thread, s int) {
			locks[s].Lock(w)
			cells.Add(w, s, 1)
			locks[s].Unlock(w)
		}
		main.Parallel(workers, func(w *Thread, i int) {
			for n := 0; n < rounds; n++ {
				s := (i + n) % stripes
				bump(w, s)
				if n%50 == 0 {
					w.Join(w.Go(func(h *Thread) { bump(h, s) }))
				}
			}
		})
		if reports := rt.Reports(); len(reports) != 0 {
			t.Errorf("%s: false positive: %v", d.Name(), reports[0])
		}
		var sum int64
		for s := 0; s < stripes; s++ {
			sum += cells.Load(main, s)
		}
		if want := int64(workers * (rounds + rounds/50)); sum != want {
			t.Errorf("%s: cells sum to %d, want %d", d.Name(), sum, want)
		}
	}
}
