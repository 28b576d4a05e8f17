package vc

import (
	"testing"

	"repro/internal/epoch"
)

func TestFreezeSnapshotsValue(t *testing.T) {
	c := FromClocks(3, 5, 0, 7)
	f := c.Freeze()
	if f.Size() != 4 {
		t.Fatalf("Size = %d, want 4", f.Size())
	}
	for i := 0; i < 4; i++ {
		if got, want := f.Get(epoch.Tid(i)), c.Get(epoch.Tid(i)); got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
	// Beyond the representation: minimal.
	if got := f.Get(9); got != epoch.Min(9) {
		t.Fatalf("Get(9) = %v, want %v", got, epoch.Min(9))
	}
	// Mutating the source must not change the snapshot.
	c.Inc(1)
	if got, want := f.Get(1), epoch.Make(1, 5); got != want {
		t.Fatalf("snapshot changed under mutation: Get(1) = %v, want %v", got, want)
	}
}

func TestFreezeCacheReuseAndInvalidation(t *testing.T) {
	c := FromClocks(1, 2)
	f1 := c.Freeze()
	f2 := c.Freeze()
	if f1 != f2 {
		t.Fatal("Freeze of an unchanged clock should return the cached snapshot")
	}
	if m := c.Metrics(); m.Freezes != 1 || m.FreezeReuses != 1 {
		t.Fatalf("Metrics = %+v, want Freezes=1 FreezeReuses=1", m)
	}
	c.Inc(0)
	f3 := c.Freeze()
	if f3 == f1 {
		t.Fatal("Freeze after mutation must produce a fresh snapshot")
	}
	if got, want := f3.Get(0), epoch.Make(0, 2); got != want {
		t.Fatalf("fresh snapshot Get(0) = %v, want %v", got, want)
	}
	// A covered Join mutates nothing and must keep the cache.
	c.Join(FromClocks(1, 1))
	if c.Freeze() != f3 {
		t.Fatal("covered Join invalidated the snapshot cache")
	}
	// An advancing Join must invalidate it.
	c.Join(FromClocks(0, 9))
	if c.Freeze() == f3 {
		t.Fatal("advancing Join kept a stale snapshot")
	}
}

func TestFreezeTrimsTrailingMinimal(t *testing.T) {
	c := New()
	c.Set(0, epoch.Make(0, 4))
	c.Set(5, epoch.Make(5, 1))
	c.Set(5, epoch.Min(5)) // back to minimal: entry 5 is now trailing noise
	f := c.Freeze()
	if f.Size() != 1 {
		t.Fatalf("Size = %d, want 1 (trailing minimal entries trimmed)", f.Size())
	}
	if !f.Equal(FromClocks(4).Freeze()) {
		t.Fatalf("trimmed snapshot %v != %v", f, FromClocks(4).Freeze())
	}
}

func TestFrozenNilIsMinimal(t *testing.T) {
	var f *Frozen
	if f.Size() != 0 {
		t.Fatal("nil Frozen should be empty")
	}
	if got := f.Get(3); got != epoch.Min(3) {
		t.Fatalf("nil Get(3) = %v, want %v", got, epoch.Min(3))
	}
	if !f.EpochLeq(epoch.Min(7)) {
		t.Fatal("minimal epoch must be ⪯ the minimal clock")
	}
	if f.EpochLeq(epoch.Make(2, 1)) {
		t.Fatal("2@1 must not be ⪯ the minimal clock")
	}
	c := FromClocks(3, 4)
	c.JoinFrozen(f)
	if !c.Equal(FromClocks(3, 4)) {
		t.Fatal("JoinFrozen(nil) must be the identity")
	}
}

func TestJoinFrozenMatchesJoin(t *testing.T) {
	a := FromClocks(3, 0, 7)
	b := FromClocks(1, 5, 2, 9)
	viaVC := a.Clone()
	viaVC.Join(b)
	viaFrozen := a.Clone()
	viaFrozen.JoinFrozen(b.Freeze())
	if !viaVC.Equal(viaFrozen) {
		t.Fatalf("JoinFrozen %v != Join %v", viaFrozen, viaVC)
	}
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

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := FromClocks(1, 2, 3).Freeze()
	b := FromClocks(1, 2, 3).Freeze()
	d := FromClocks(1, 2, 4).Freeze()
	if in.Intern(a) != a {
		t.Fatal("first Intern must canonicalize to the argument")
	}
	if in.Intern(b) != a {
		t.Fatal("Intern of an equal clock must return the canonical snapshot")
	}
	if in.Intern(d) != d {
		t.Fatal("Intern of a distinct clock must register it")
	}
	// Representation-insensitive: trailing minimal entries are trimmed by
	// Freeze, so a padded build of the same clock interns to the canonical.
	padded := New()
	padded.Set(0, epoch.Make(0, 1))
	padded.Set(1, epoch.Make(1, 2))
	padded.Set(2, epoch.Make(2, 3))
	padded.Set(7, epoch.Make(7, 1))
	padded.Set(7, epoch.Min(7))
	if in.Intern(padded.Freeze()) != a {
		t.Fatal("padded representation of an equal clock missed the intern")
	}
	hits, misses := in.Stats()
	if hits != 2 || misses != 2 || in.Len() != 2 {
		t.Fatalf("Stats = (%d,%d) Len=%d, want (2,2) Len=2", hits, misses, in.Len())
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

// BenchmarkFreezeCached measures the copy-on-write hit: freezing an
// unchanged clock.
func BenchmarkFreezeCached(b *testing.B) {
	c, _ := joinBenchClocks(32, true)
	c.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Freeze()
	}
}

// BenchmarkFreezeMiss measures the copy cost when every freeze follows a
// mutation (the worst case the cache cannot help).
func BenchmarkFreezeMiss(b *testing.B) {
	c, _ := joinBenchClocks(32, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(0)
		c.Freeze()
	}
}
