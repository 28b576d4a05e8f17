package conformance

import "repro/internal/rtsim"

// Programs returns the built-in conformance kernels: small programs chosen
// so that, together, they exercise every simulator primitive (vars, arrays,
// locks, volatiles, barriers, conds, once, fork/join) under controlled
// schedules. Several are intentionally racy — and racy in a
// schedule-dependent way, so exploration actually changes the oracle's
// verdict from run to run — because the detectors' agreement on *where* the
// first race appears is exactly what the suite checks.
func Programs() []Program {
	return []Program{
		{Name: "racy-counter", Run: racyCounter},
		{Name: "locked-counter", Run: lockedCounter},
		{Name: "message-guarded", Run: messageGuarded},
		{Name: "message-unguarded", Run: messageUnguarded},
		{Name: "lock-shuffle", Run: lockShuffle},
		{Name: "barrier-phases", Run: barrierPhases},
		{Name: "fork-join-tree", Run: forkJoinTree},
		{Name: "once-init", Run: onceInit},
		{Name: "cond-handoff", Run: condHandoff},
	}
}

// racyCounter: three threads bump an unlocked counter. Racy under every
// schedule, but the *position* of the first racing access moves with the
// interleaving.
func racyCounter(rt *rtsim.Runtime) {
	main := rt.Main()
	c := rt.NewVar()
	main.Parallel(3, func(w *rtsim.Thread, i int) {
		v := c.Load(w)
		c.Store(w, v+1)
	})
	c.Load(main)
}

// lockedCounter: the same shape with the lock in place. Race-free under
// every schedule.
func lockedCounter(rt *rtsim.Runtime) {
	main := rt.Main()
	c := rt.NewVar()
	mu := rt.NewMutex()
	main.Parallel(3, func(w *rtsim.Thread, i int) {
		mu.Lock(w)
		v := c.Load(w)
		c.Store(w, v+1)
		mu.Unlock(w)
	})
	mu.Lock(main)
	c.Load(main)
	mu.Unlock(main)
}

// messageGuarded: volatile message passing done right — the reader touches
// the data only when the flag load observed the publication. Race-free
// under every schedule, but the reader's behavior (and hence the recorded
// linearization) depends on where the scheduler places the flag load.
func messageGuarded(rt *rtsim.Runtime) {
	main := rt.Main()
	data := rt.NewVar()
	flag := rt.NewVolatile()
	writer := main.Go(func(w *rtsim.Thread) {
		data.Store(w, 42)
		flag.Store(w, 1)
	})
	reader := main.Go(func(w *rtsim.Thread) {
		if flag.Load(w) == 1 {
			data.Load(w)
		}
	})
	main.Join(writer)
	main.Join(reader)
}

// messageUnguarded: the reader ignores the flag's value and reads the data
// unconditionally. Whether that is a race depends on the schedule: if the
// flag load lands after the writer's flag store, the volatile edge orders
// the accesses; if it lands before, nothing does.
func messageUnguarded(rt *rtsim.Runtime) {
	main := rt.Main()
	data := rt.NewVar()
	flag := rt.NewVolatile()
	writer := main.Go(func(w *rtsim.Thread) {
		data.Store(w, 42)
		flag.Store(w, 1)
	})
	reader := main.Go(func(w *rtsim.Thread) {
		flag.Load(w)
		data.Load(w)
	})
	main.Join(writer)
	main.Join(reader)
}

// lockShuffle: two threads touch two vars under two locks, but each var is
// consistently guarded by its own lock only in one thread — the other
// swaps them. Racy in a schedule-dependent way and a classic lockset
// stress shape.
func lockShuffle(rt *rtsim.Runtime) {
	main := rt.Main()
	x := rt.NewVar()
	y := rt.NewVar()
	a := rt.NewMutex()
	b := rt.NewMutex()
	t1 := main.Go(func(w *rtsim.Thread) {
		a.Lock(w)
		x.Store(w, 1)
		a.Unlock(w)
		b.Lock(w)
		y.Store(w, 1)
		b.Unlock(w)
	})
	t2 := main.Go(func(w *rtsim.Thread) {
		b.Lock(w)
		x.Store(w, 2) // wrong lock for x
		b.Unlock(w)
		a.Lock(w)
		y.Store(w, 2) // wrong lock for y
		a.Unlock(w)
	})
	main.Join(t1)
	main.Join(t2)
}

// barrierPhases: each worker writes its own slot, crosses a barrier, then
// reads its neighbour's slot. Race-free under every schedule — but only
// because the barrier's release edges order the phases, which exercises the
// barrier lowering under control.
func barrierPhases(rt *rtsim.Runtime) {
	const n = 4
	main := rt.Main()
	slots := rt.NewArray(n)
	bar := rt.NewBarrier(n)
	main.Parallel(n, func(w *rtsim.Thread, i int) {
		slots.Store(w, i, int64(i))
		bar.Await(w)
		slots.Load(w, (i+1)%n)
	})
}

// forkJoinTree: a two-level fork/join tree where the grandchildren write
// disjoint slots and ancestors read them only after joining. Race-free;
// exercises nested fork under control.
func forkJoinTree(rt *rtsim.Runtime) {
	main := rt.Main()
	slots := rt.NewArray(4)
	kids := make([]*rtsim.Thread, 2)
	for i := 0; i < 2; i++ {
		i := i
		kids[i] = main.Go(func(w *rtsim.Thread) {
			g0 := w.Go(func(g *rtsim.Thread) { slots.Store(g, 2*i, int64(i)) })
			g1 := w.Go(func(g *rtsim.Thread) { slots.Store(g, 2*i+1, int64(i)) })
			w.Join(g0)
			w.Join(g1)
			slots.Load(w, 2*i)
		})
	}
	for i := 0; i < 2; i++ {
		main.Join(kids[i])
		slots.Load(main, 2*i+1)
	}
}

// onceInit: three threads race to initialize a shared var through Once and
// then read it. Race-free: whichever thread wins, Once's mutual exclusion
// orders the initializing write before every reader.
func onceInit(rt *rtsim.Runtime) {
	main := rt.Main()
	v := rt.NewVar()
	once := rt.NewOnce()
	main.Parallel(3, func(w *rtsim.Thread, i int) {
		once.Do(w, func(t *rtsim.Thread) { v.Store(t, 7) })
		v.Load(w)
	})
}

// condHandoff: a producer/consumer pair over a condition variable with the
// standard predicate loop. Race-free; exercises CondWait's release/
// reacquire cycle in the scheduler.
func condHandoff(rt *rtsim.Runtime) {
	main := rt.Main()
	mu := rt.NewMutex()
	cond := mu.NewCond()
	ready := rt.NewVar()
	data := rt.NewVar()
	consumer := main.Go(func(w *rtsim.Thread) {
		mu.Lock(w)
		for ready.Load(w) == 0 {
			cond.Wait(w)
		}
		data.Load(w)
		mu.Unlock(w)
	})
	producer := main.Go(func(w *rtsim.Thread) {
		mu.Lock(w)
		data.Store(w, 99)
		ready.Store(w, 1)
		cond.Signal(w)
		mu.Unlock(w)
	})
	main.Join(consumer)
	main.Join(producer)
}
