package vc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/epoch"
)

func TestZeroValueIsMinimal(t *testing.T) {
	c := New()
	for _, tid := range []epoch.Tid{0, 1, 100} {
		if got := c.Get(tid); got != epoch.Min(tid) {
			t.Errorf("Get(%d) = %v, want %v", tid, got, epoch.Min(tid))
		}
	}
	if c.Size() != 0 {
		t.Errorf("Size = %d", c.Size())
	}
}

func TestSetGetGrow(t *testing.T) {
	c := New()
	e := epoch.Make(5, 9)
	c.Set(5, e)
	if c.Size() != 6 {
		t.Errorf("Size = %d, want 6", c.Size())
	}
	if got := c.Get(5); got != e {
		t.Errorf("Get(5) = %v", got)
	}
	// Intermediate entries must have been filled with well-formed minimal
	// epochs.
	for i := epoch.Tid(0); i < 5; i++ {
		if got := c.Get(i); got != epoch.Min(i) {
			t.Errorf("Get(%d) = %v, want minimal", i, got)
		}
	}
}

func TestSetWellFormednessEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set with mismatched tid should panic")
		}
	}()
	New().Set(3, epoch.Make(4, 1))
}

func TestInc(t *testing.T) {
	c := New()
	c.Inc(2)
	c.Inc(2)
	c.Inc(0)
	if got := c.Get(2).Clock(); got != 2 {
		t.Errorf("clock(2) = %d", got)
	}
	if got := c.Get(0).Clock(); got != 1 {
		t.Errorf("clock(0) = %d", got)
	}
}

func TestLeqMixedSizes(t *testing.T) {
	small := FromClocks(1, 2)
	big := FromClocks(1, 2, 0, 0)
	if !small.Leq(big) || !big.Leq(small) {
		t.Error("clocks differing only in trailing minimal entries must be Leq-equal")
	}
	bigger := FromClocks(1, 2, 0, 1)
	if !small.Leq(bigger) {
		t.Error("small ⊑ bigger expected")
	}
	if bigger.Leq(small) {
		t.Error("bigger ⊑ small unexpected")
	}
}

func TestEpochLeq(t *testing.T) {
	c := FromClocks(4, 8)
	if !c.EpochLeq(epoch.Make(0, 4)) {
		t.Error("0@4 ⪯ <4,8> expected")
	}
	if c.EpochLeq(epoch.Make(0, 5)) {
		t.Error("0@5 ⪯ <4,8> unexpected")
	}
	if !c.EpochLeq(epoch.Make(7, 0)) {
		t.Error("7@0 ⪯ anything expected (implicit minimal entry)")
	}
}

func TestJoin(t *testing.T) {
	a := FromClocks(4, 0)
	b := FromClocks(0, 8, 3)
	a.Join(b)
	want := FromClocks(4, 8, 3)
	if !a.Equal(want) {
		t.Errorf("join = %v, want %v", a, want)
	}
	// Joining must not disturb the operand.
	if !b.Equal(FromClocks(0, 8, 3)) {
		t.Error("Join mutated its argument")
	}
}

func TestAssign(t *testing.T) {
	dst := FromClocks(9, 9, 9)
	src := FromClocks(1, 2)
	dst.Assign(src)
	if !dst.Equal(src) {
		t.Errorf("Assign: %v != %v", dst, src)
	}
	// The Fig. 1 release step: Sm.V becomes SA.V exactly, including
	// clearing entries src lacks.
	if dst.Get(2) != epoch.Min(2) {
		t.Errorf("Assign left stale entry: %v", dst.Get(2))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromClocks(1, 2, 3)
	a.Join(FromClocks(0, 0, 0, 4)) // give the original counters to not inherit
	b := a.Clone()
	if m := b.Metrics(); m != (Metrics{}) {
		t.Errorf("clone inherited metrics: %+v", m)
	}
	b.Inc(0)
	if a.Get(0).Clock() != 1 {
		t.Error("Clone shares storage with original")
	}
}

// TestGeometricGrowth pins the ensureCapacity contract: Grows counts only
// reallocation-and-copy events, so a clock touched at increasing tids
// reallocates O(log n) times, and an in-place extension within existing
// capacity fills the slots it exposes with minimal epochs.
func TestGeometricGrowth(t *testing.T) {
	c := New()
	for i := 0; i < 1000; i++ {
		c.Inc(epoch.Tid(i))
	}
	if g := c.Metrics().Grows; g > 10 {
		t.Fatalf("1000 single-step grows cost %d reallocations, want <= 10 (geometric)", g)
	}
	for i := 0; i < 1000; i++ {
		if got := c.Get(epoch.Tid(i)); got != epoch.Make(epoch.Tid(i), 1) {
			t.Fatalf("entry %d corrupted after growth: %v", i, got)
		}
	}

	// Size 5 reallocates to capacity 8; reaching tid 7 then extends in
	// place and must not expose the array's zero words at 5 and 6.
	d := New()
	d.Inc(4)
	grows := d.Metrics().Grows
	d.Inc(7)
	if d.Metrics().Grows != grows {
		t.Fatalf("extension within capacity counted as a grow")
	}
	for _, i := range []epoch.Tid{5, 6} {
		if got := d.Get(i); got != epoch.Min(i) {
			t.Fatalf("in-place extension exposed %v at t%d, want minimal", got, i)
		}
	}
}

// TestAssignSingleGrow is the regression test for Assign's single
// grow-and-copy: one Assign from a much larger clock performs exactly one
// reallocation (one Grows tick), not one per entry.
func TestAssignSingleGrow(t *testing.T) {
	big := New()
	for i := 0; i < 100; i++ {
		big.Inc(epoch.Tid(i))
	}
	c := New()
	before := c.Metrics().Grows
	c.Assign(big)
	if got := c.Metrics().Grows - before; got != 1 {
		t.Fatalf("Assign from 100-entry clock cost %d grows, want exactly 1", got)
	}
	if !c.Equal(big) {
		t.Fatalf("Assign result differs from source")
	}
	// Assigning a smaller value resets the tail to minimal.
	small := New()
	small.Inc(0)
	c.Assign(small)
	for i := 1; i < 100; i++ {
		if got := c.Get(epoch.Tid(i)); got != epoch.Min(epoch.Tid(i)) {
			t.Fatalf("Assign left stale tail entry at %d: %v", i, got)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := FromClocks(3, 1, 4)
	b := FromSnapshot(a.Snapshot())
	if !a.Equal(b) {
		t.Errorf("round trip: %v vs %v", a, b)
	}
}

func TestFromSnapshotValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ill-formed snapshot should panic")
		}
	}()
	FromSnapshot([]epoch.Epoch{epoch.Make(1, 0)})
}

func TestString(t *testing.T) {
	if s := FromClocks(4, 0).String(); s != "<0@4,1@0>" {
		t.Errorf("String = %q", s)
	}
}

// randomVC builds a clock with entries for threads [0,n) drawn from rng.
func randomVC(rng *rand.Rand, n int) *VC {
	c := New()
	for i := 0; i < n; i++ {
		c.Set(epoch.Tid(i), epoch.Make(epoch.Tid(i), uint64(rng.Intn(16))))
	}
	return c
}

// Property: Join computes the least upper bound under ⊑.
func TestQuickJoinIsLub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randomVC(rng, rng.Intn(6))
		b := randomVC(rng, rng.Intn(6))
		j := a.Clone()
		j.Join(b)
		if !a.Leq(j) || !b.Leq(j) {
			t.Fatalf("join not an upper bound: %v ⊔ %v = %v", a, b, j)
		}
		// Least: every entry of j equals the max of the operands, so any
		// other upper bound u satisfies j ⊑ u. Check against a sampled u.
		u := a.Clone()
		u.Join(b)
		u.Inc(epoch.Tid(rng.Intn(6)))
		if !j.Leq(u) {
			t.Fatalf("join not least: %v vs %v", j, u)
		}
	}
}

// Property: Join is commutative and associative, with ⊥V as identity.
func TestQuickJoinLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		a := randomVC(rng, rng.Intn(5))
		b := randomVC(rng, rng.Intn(5))
		c := randomVC(rng, rng.Intn(5))

		ab := a.Clone()
		ab.Join(b)
		ba := b.Clone()
		ba.Join(a)
		if !ab.Equal(ba) {
			t.Fatalf("join not commutative: %v vs %v", ab, ba)
		}

		abc1 := ab.Clone()
		abc1.Join(c)
		bc := b.Clone()
		bc.Join(c)
		abc2 := a.Clone()
		abc2.Join(bc)
		if !abc1.Equal(abc2) {
			t.Fatalf("join not associative")
		}

		id := a.Clone()
		id.Join(New())
		if !id.Equal(a) {
			t.Fatalf("⊥V not identity")
		}
	}
}

// Property: Leq is a partial order.
func TestQuickLeqPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		a := randomVC(rng, rng.Intn(5))
		b := randomVC(rng, rng.Intn(5))
		c := randomVC(rng, rng.Intn(5))
		if !a.Leq(a) {
			t.Fatal("Leq not reflexive")
		}
		if a.Leq(b) && b.Leq(a) && !a.Equal(b) {
			t.Fatal("Leq not antisymmetric")
		}
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			t.Fatal("Leq not transitive")
		}
	}
}

// Property: e ⪯ V iff the singleton clock {e} ⊑ V. This ties the epoch-VC
// fast comparison (the heart of FastTrack's O(1) checks) to the full
// pointwise order.
func TestQuickEpochLeqAgreesWithLeq(t *testing.T) {
	f := func(tid uint8, clk uint8, c0, c1, c2, c3 uint8) bool {
		tt := epoch.Tid(tid % 4)
		e := epoch.Make(tt, uint64(clk%16))
		v := FromClocks(uint64(c0%16), uint64(c1%16), uint64(c2%16), uint64(c3%16))
		single := New()
		single.Set(tt, e)
		return v.EpochLeq(e) == single.Leq(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Assign makes the destination Equal to the source regardless of
// prior contents or relative sizes.
func TestQuickAssignEqualizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		dst := randomVC(rng, rng.Intn(7))
		src := randomVC(rng, rng.Intn(7))
		dst.Assign(src)
		if !dst.Equal(src) {
			t.Fatalf("Assign failed: %v vs %v", dst, src)
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	a := randomVC(rand.New(rand.NewSource(1)), 16)
	c := randomVC(rand.New(rand.NewSource(2)), 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Join(c)
	}
}

func BenchmarkEpochLeq(b *testing.B) {
	v := randomVC(rand.New(rand.NewSource(3)), 16)
	e := epoch.Make(7, 3)
	for i := 0; i < b.N; i++ {
		if !v.EpochLeq(e) && v.Size() < 0 {
			b.Fatal("unreachable")
		}
	}
}
