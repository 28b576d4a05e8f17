package rtsim

import (
	"testing"

	"repro/internal/core"
)

// Bounded buffer via Cond: the canonical wait/notify program. Race-free —
// the monitor protects the buffer and the wait/notify edges order handoffs.
func TestCondBoundedBuffer(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()

		const capacity = 4
		const items = 100
		buf := rt.NewArray(capacity)
		count := rt.NewVar()
		mu := rt.NewMutex()
		notFull := mu.NewCond()
		notEmpty := mu.NewCond()

		producer := main.Go(func(w *Thread) {
			for i := 0; i < items; i++ {
				mu.Lock(w)
				for count.Load(w) == capacity {
					notFull.Wait(w)
				}
				buf.Store(w, i%capacity, int64(i))
				count.Add(w, 1)
				notEmpty.Signal(w)
				mu.Unlock(w)
			}
		})
		var sum int64
		for consumed := 0; consumed < items; consumed++ {
			mu.Lock(main)
			for count.Load(main) == 0 {
				notEmpty.Wait(main)
			}
			sum += buf.Load(main, consumed%capacity)
			count.Add(main, -1)
			notFull.Signal(main)
			mu.Unlock(main)
		}
		main.Join(producer)

		if reports := rt.Reports(); len(reports) != 0 {
			t.Fatalf("%s: bounded buffer false positive: %v", d.Name(), reports[0])
		}
		if want := int64(items * (items - 1) / 2); sum != want {
			t.Fatalf("%s: sum = %d, want %d (buffer semantics broken)", d.Name(), sum, want)
		}
	}
}

// Wait must order the waiter after the signaling thread's monitor section:
// data written before Signal is safely read after Wait returns.
func TestCondPublishesThroughMonitor(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		data := rt.NewVar()
		ready := rt.NewVar()
		mu := rt.NewMutex()
		cond := mu.NewCond()

		waiter := main.Go(func(w *Thread) {
			mu.Lock(w)
			for ready.Load(w) == 0 {
				cond.Wait(w)
			}
			mu.Unlock(w)
			data.Load(w) // ordered after the writer via the monitor
		})
		data.Store(main, 42) // before entering the monitor
		mu.Lock(main)
		ready.Store(main, 1)
		cond.Broadcast(main)
		mu.Unlock(main)
		main.Join(waiter)

		if reports := rt.Reports(); len(reports) != 0 {
			t.Fatalf("%s: wait/notify publication false positive: %v", d.Name(), reports[0])
		}
	}
}

// Once orders the initializer before every user, including users on other
// threads that never synchronize with the initializing thread otherwise —
// the §7 static-initializer pattern.
func TestOnceOrdersInitializer(t *testing.T) {
	for _, d := range detectors(t) {
		rt := New(d)
		main := rt.Main()
		table := rt.NewArray(8)
		once := rt.NewOnce()
		initialize := func(w *Thread) {
			for i := 0; i < table.Len(); i++ {
				table.Store(w, i, int64(i*i))
			}
		}

		main.Parallel(4, func(w *Thread, i int) {
			once.Do(w, initialize)
			for j := 0; j < table.Len(); j++ {
				table.Load(w, j)
			}
		})
		if reports := rt.Reports(); len(reports) != 0 {
			t.Fatalf("%s: static-initializer false positive: %v", d.Name(), reports[0])
		}
	}
}

// Without Once, the same pattern is racy — pins down that the clean result
// above is due to the Once edges, not detector blindness.
func TestInitializerWithoutOnceRaces(t *testing.T) {
	d, err := core.New("vft-v2", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(d)
	main := rt.Main()
	table := rt.NewArray(8)
	first := main.Go(func(w *Thread) {
		for i := 0; i < table.Len(); i++ {
			table.Store(w, i, int64(i))
		}
	})
	// Reader races with the initializer.
	for j := 0; j < table.Len(); j++ {
		table.Load(main, j)
	}
	main.Join(first)
	if len(rt.Reports()) == 0 {
		t.Fatal("unordered initializer should race")
	}
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	rt := New(nil)
	main := rt.Main()
	once := rt.NewOnce()
	runs := 0
	for i := 0; i < 5; i++ {
		once.Do(main, func(*Thread) { runs++ })
	}
	if runs != 1 {
		t.Fatalf("initializer ran %d times", runs)
	}
}
