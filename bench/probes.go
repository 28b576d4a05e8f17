package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/vc"
)

// vcWidth is the clock width of the vc micro-probes: the 16 threads of the
// online kernels.
const vcWidth = 16

// vcProbes times the three whole-clock operations of the default clock
// representation at width 16, outside any detector: the join an acquire
// performs, the copy a release performs, and the comparison of a 16-entry
// read vector against a thread's clock.
func vcProbes(r *result) {
	impl := core.DefaultConfig().ClockImpl
	fill := func() vc.Clock {
		c := vc.NewClock(impl, nil)
		for t := 0; t < vcWidth; t++ {
			c.Set(epoch.Tid(t), epoch.Make(epoch.Tid(t), uint64(t+1)))
		}
		return c
	}
	const iters = 200_000
	probe := func(name string, body func(a, b vc.Clock, i int)) {
		var ns []float64
		for rep := 0; rep < 10; rep++ {
			a, b := fill(), fill()
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				body(a, b, i)
			}
			ns = append(ns, float64(time.Since(t0))/iters)
		}
		r.setSamples(name, ns)
	}
	// The source moves ahead in one component before each join or copy,
	// as a lock's clock does between two critical sections.
	probe("vc.join_ns_t16", func(a, b vc.Clock, i int) {
		b.Inc(epoch.Tid(i % vcWidth))
		a.Join(b)
	})
	probe("vc.copy_ns_t16", func(a, b vc.Clock, i int) {
		b.Inc(epoch.Tid(i % vcWidth))
		a.Assign(b)
	})
	var sink bool
	probe("vc.leq_ns_t16", func(a, b vc.Clock, i int) {
		for t := 0; t < vcWidth; t++ {
			sink = b.EpochLeq(a.Get(epoch.Tid(t))) != sink
		}
	})
	_ = sink
}
