package vc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/epoch"
)

// refJoin is Fig. 3's VectorClock.join transcribed literally — one get and
// one guarded set per entry — and the reference Join's slice kernel is
// checked against.
func refJoin(dst *VC, src []epoch.Epoch) {
	dst.m.Joins++
	dst.m.JoinScanned += uint64(len(src))
	for i, e := range src {
		if t := epoch.Tid(i); e > dst.Get(t) {
			dst.Set(t, e)
		}
	}
}

// refLeq is the per-entry pointwise order over both representations.
func refLeq(a, b *VC) bool {
	for i := 0; i < max(a.Size(), b.Size()); i++ {
		if t := epoch.Tid(i); !a.Get(t).Leq(b.Get(t)) {
			return false
		}
	}
	return true
}

// clockOf is FromClocks over the small values testing/quick generates; a
// zero is a minimal entry, so trailing zeros are a trailing-minimal tail.
func clockOf(vals []uint8) *VC {
	clocks := make([]uint64, len(vals))
	for i, v := range vals {
		clocks[i] = uint64(v)
	}
	return FromClocks(clocks...)
}

// checkJoin joins src into a copy of dst by Join and by refJoin, and
// reports the first disagreement in value, size or counters.
func checkJoin(t *testing.T, dst, src *VC) bool {
	t.Helper()
	got, want := dst.Clone(), dst.Clone()
	got.Join(src)
	refJoin(want, src.v)
	if got.Size() != want.Size() || !refLeq(got, want) || !refLeq(want, got) {
		t.Errorf("%v ⊔ %v = %v, reference %v", dst, src, got, want)
		return false
	}
	// One capacity check instead of one per entry: the kernel reallocates
	// exactly when the reference does, but at most once.
	gm, wm := got.Metrics(), want.Metrics()
	if (gm.Grows == 0) != (wm.Grows == 0) || gm.Grows > 1 {
		t.Errorf("%v ⊔ %v: Grows = %d, reference %d", dst, src, gm.Grows, wm.Grows)
		return false
	}
	gm.Grows, wm.Grows = 0, 0
	if gm != wm {
		t.Errorf("%v ⊔ %v: Metrics = %+v, reference %+v", dst, src, gm, wm)
		return false
	}
	return true
}

func TestQuickBulkJoinMatchesPerEntry(t *testing.T) {
	prop := func(d, s []uint8) bool {
		return checkJoin(t, clockOf(d), clockOf(s))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBulkLeqMatchesPerEntry(t *testing.T) {
	prop := func(a, b []uint8) bool {
		x, y := clockOf(a), clockOf(b)
		// Random pairs are almost never ordered; y ⊔ x against x and y
		// exercises the true outcome, over unequal lengths both ways.
		j := y.Clone()
		j.Join(x)
		for _, p := range [][2]*VC{{x, y}, {y, x}, {x, j}, {j, x}, {x, x}} {
			if got, want := p[0].Leq(p[1]), refLeq(p[0], p[1]); got != want {
				t.Errorf("%v ⊑ %v = %v, reference %v", p[0], p[1], got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBulkJoinShapes pins the shapes quick reaches only by luck.
func TestBulkJoinShapes(t *testing.T) {
	// A source whose minimal tail extends past the destination must not
	// grow it.
	dst := FromClocks(3, 4)
	before := dst.Metrics().Grows
	src := FromClocks(1, 2, 0, 0, 0, 0, 0, 0, 0)
	checkJoin(t, dst, src)
	dst.Join(src)
	if dst.Size() != 2 || dst.Metrics().Grows != before {
		t.Fatalf("minimal tail grew the destination: Size=%d Grows=%d", dst.Size(), dst.Metrics().Grows)
	}
	// A tail that is minimal except for one late entry grows to it.
	checkJoin(t, dst, FromClocks(0, 0, 0, 0, 0, 0, 1, 0, 0))
	// Fully covered, equal, one-entry advance, empty on either side.
	checkJoin(t, FromClocks(5, 5, 5), FromClocks(5, 4, 3))
	checkJoin(t, FromClocks(5, 5, 5), FromClocks(5, 5, 5))
	checkJoin(t, FromClocks(5, 5, 5), FromClocks(5, 6, 5))
	checkJoin(t, FromClocks(5, 5, 5), New())
	checkJoin(t, New(), FromClocks(5, 5, 5))
}

func TestJoinFastPaths(t *testing.T) {
	// Empty other: no scan recorded, no growth.
	c := FromClocks(2, 3)
	c.Join(New())
	if !c.Equal(FromClocks(2, 3)) {
		t.Fatal("Join with empty clock changed the receiver")
	}
	if m := c.Metrics(); m.Joins != 1 || m.JoinScanned != 0 {
		t.Fatalf("Metrics = %+v, want Joins=1 JoinScanned=0", m)
	}
	// Covered other (other ⊑ c, shorter): value unchanged, no growth.
	before := c.Metrics().Grows
	c.Join(FromClocks(1))
	if !c.Equal(FromClocks(2, 3)) {
		t.Fatal("covered Join changed the receiver")
	}
	if c.Metrics().Grows != before {
		t.Fatal("covered Join grew the representation")
	}
	// General join still merges pointwise.
	c.Join(FromClocks(0, 9, 4))
	if !c.Equal(FromClocks(2, 9, 4)) {
		t.Fatalf("Join = %v, want <0@2,1@9,2@4>", c)
	}
}

func TestJoinWithinCapacityDoesNotAllocate(t *testing.T) {
	recv, arg := joinBenchClocks(32, false)
	if n := testing.AllocsPerRun(100, func() { recv.Join(arg) }); n != 0 {
		t.Fatalf("join within capacity allocated %v times per run", n)
	}
}

// joinBenchClocks builds a receiver and an argument of n entries each; when
// covered is true the argument is entirely ⊑ the receiver (the shape of
// barrier re-arrivals and same-thread re-acquires).
func joinBenchClocks(n int, covered bool) (*VC, *VC) {
	recv, arg := New(), New()
	for i := 0; i < n; i++ {
		t := epoch.Tid(i)
		recv.Set(t, epoch.Make(t, uint64(10+i)))
		if covered {
			arg.Set(t, epoch.Make(t, uint64(1+i)))
		} else {
			arg.Set(t, epoch.Make(t, uint64(20+i)))
		}
	}
	return recv, arg
}

// BenchmarkJoinAdvancing is the general case: every entry of the argument
// advances the receiver (into a fresh clone, so the copy is timed too).
func BenchmarkJoinAdvancing(b *testing.B) {
	recv, arg := joinBenchClocks(32, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := recv.Clone()
		c.Join(arg)
	}
}

// BenchmarkJoinCovered is the re-acquire case: the argument is already ⊑
// the receiver, so the join changes nothing.
func BenchmarkJoinCovered(b *testing.B) {
	recv, arg := joinBenchClocks(32, true)
	c := recv.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Join(arg)
	}
}

// BenchmarkJoinEmpty is the O(1) fast path: joining a never-released
// lock's minimal clock.
func BenchmarkJoinEmpty(b *testing.B) {
	recv, _ := joinBenchClocks(32, true)
	empty := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv.Join(empty)
	}
}

// interleavedClocks builds a receiver and n sources of the given width in
// which a seeded random half of the entries is ahead on each side, so
// which entries a join advances cannot be learned from the joins before it.
func interleavedClocks(width, n int) (*VC, []*VC) {
	rng := rand.New(rand.NewSource(1))
	recv := New()
	for i := 0; i < width; i++ {
		recv.Set(epoch.Tid(i), epoch.Make(epoch.Tid(i), 1000))
	}
	srcs := make([]*VC, n)
	for k := range srcs {
		srcs[k] = New()
		for j, i := range rng.Perm(width) {
			c := uint64(900)
			if j < width/2 {
				c = 1100
			}
			srcs[k].Set(epoch.Tid(i), epoch.Make(epoch.Tid(i), c))
		}
	}
	return recv, srcs
}

// BenchmarkJoinUnpredictable is the join of two clocks that interleave —
// 32 threads taking turns on striped locks — rotating over 256 sources so
// the advance pattern never repeats within a predictor's reach.
// BenchmarkJoinAdvancing and BenchmarkJoinCovered take the same decision
// at every entry, which a per-entry branch gets for free; this is the
// shape that shows what such a branch costs. Each iteration first restores
// the receiver with Assign (a bulk copy, the same on both sides of any
// comparison).
func BenchmarkJoinUnpredictable(b *testing.B) {
	recv, srcs := interleavedClocks(32, 256)
	c := recv.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Assign(recv)
		c.Join(srcs[i%len(srcs)])
	}
}

// BenchmarkLeqBulk is a whole-clock ⊑ check at width 32 in its common,
// race-free outcome: every entry is compared and the answer is true.
func BenchmarkLeqBulk(b *testing.B) {
	recv, srcs := interleavedClocks(32, 64)
	for _, s := range srcs {
		recv.Join(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !srcs[i%len(srcs)].Leq(recv) {
			b.Fatal("source not below the join of all sources")
		}
	}
}
