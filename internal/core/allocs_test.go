package core

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/trace"
)

// TestFastPathZeroAllocs pins the allocation-freedom of the §5 lock-free
// cases: a same-epoch read or write must not allocate, for every precise
// variant. Allocation on these paths would show up as GC pressure
// proportional to the access count — exactly what the epoch design exists
// to avoid.
func TestFastPathZeroAllocs(t *testing.T) {
	for _, det := range Variants() {
		d, err := New(det, Config{})
		if err != nil {
			t.Fatal(err)
		}
		d.Read(0, 1)
		d.Write(0, 2)
		if n := testing.AllocsPerRun(100, func() { d.Read(0, 1) }); n != 0 {
			t.Errorf("%s: same-epoch read allocates %.1f/op", det, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.Write(0, 2) }); n != 0 {
			t.Errorf("%s: same-epoch write allocates %.1f/op", det, n)
		}
	}
}

// TestReacquireJoinZeroAllocs pins the join fast path: re-acquiring a lock
// the thread itself released last joins a clock entirely ⊑ the thread's
// own, which must mutate nothing and allocate nothing (the
// skip-covered-entries scan).
func TestReacquireJoinZeroAllocs(t *testing.T) {
	for _, det := range Variants() {
		d, err := New(det, Config{})
		if err != nil {
			t.Fatal(err)
		}
		const (
			tid = epoch.Tid(0)
			m   = trace.Lock(3)
		)
		// Prime: one release populates the lock's clock; the steady
		// state is then acquire/release by the same thread.
		d.Acquire(tid, m)
		d.Release(tid, m)
		d.Acquire(tid, m)
		d.Release(tid, m)
		if n := testing.AllocsPerRun(100, func() {
			d.Acquire(tid, m)
			d.Release(tid, m)
		}); n != 0 {
			t.Errorf("%s: re-acquire cycle allocates %.1f/op", det, n)
		}
	}
}
