package vc

import (
	"strings"

	"repro/internal/epoch"
)

// Frozen is an immutable snapshot of a vector clock. A nil *Frozen is the
// minimal clock ⊥V (every entry reads as t@0), so zero-initialized lock
// state needs no allocation before its first release.
//
// Frozen values are produced by VC.Freeze, which caches the snapshot on
// the source clock: freezing an unchanged clock twice returns the same
// pointer instead of copying again. A clock that is released k times but
// mutated j times between releases therefore allocates min(j+1, k)
// snapshots, which is what makes publishing per-access timestamps O(sync
// ops) in allocations rather than O(accesses) (the parcheck prepass) and
// a lock release cheaper than a full Assign copy when nothing changed
// since the previous release.
//
// Because a Frozen is immutable it is safe to share across goroutines
// without synchronization once safely published.
type Frozen struct {
	v []epoch.Epoch
}

// Size returns the length of the snapshot's representation; entries at
// index >= Size() are implicitly minimal. Trailing minimal entries are
// trimmed by Freeze, so Size is canonical for equal clocks.
func (f *Frozen) Size() int {
	if f == nil {
		return 0
	}
	return len(f.v)
}

// Get returns the epoch recorded for thread t (t@0 beyond the snapshot).
func (f *Frozen) Get(t epoch.Tid) epoch.Epoch {
	if f != nil && int(t) < len(f.v) {
		return f.v[t]
	}
	return epoch.Min(t)
}

// EpochLeq reports e ⪯ f, i.e. whether epoch e happens before the frozen
// clock: e <= f.Get(e.Tid()). It must not be called with the Shared
// marker, like VC.EpochLeq.
func (f *Frozen) EpochLeq(e epoch.Epoch) bool {
	return e.Leq(f.Get(e.Tid()))
}

// View returns the snapshot's entries without copying, like VC.View; the
// slice is immutable along with the snapshot.
func (f *Frozen) View() []epoch.Epoch {
	if f == nil {
		return nil
	}
	return f.v
}

// Equal reports whether two snapshots denote the same clock.
func (f *Frozen) Equal(other *Frozen) bool {
	// Freeze trims trailing minimal entries, so equal clocks have equal
	// representations.
	if f.Size() != other.Size() {
		return false
	}
	for i := 0; i < f.Size(); i++ {
		if f.v[i] != other.v[i] {
			return false
		}
	}
	return true
}

// ToVC returns an independent mutable copy of the snapshot.
func (f *Frozen) ToVC() *VC {
	if f == nil {
		return New()
	}
	out := &VC{v: make([]epoch.Epoch, len(f.v))}
	copy(out.v, f.v)
	return out
}

// String renders the snapshot in the paper's clock-list notation.
func (f *Frozen) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i := 0; i < f.Size(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.v[i].String())
	}
	b.WriteByte('>')
	return b.String()
}

// Freeze returns an immutable snapshot of the clock's current value. The
// snapshot is cached on the clock and invalidated by the next mutation,
// so repeated freezes of an unchanged clock are allocation-free pointer
// returns (counted in Metrics.FreezeReuses). Trailing minimal entries are
// trimmed so that equal clocks freeze to structurally equal snapshots.
func (c *VC) Freeze() *Frozen {
	if c.frozen != nil {
		c.m.FreezeReuses++
		return c.frozen
	}
	n := len(c.v)
	for n > 0 && c.v[n-1] == epoch.Min(epoch.Tid(n-1)) {
		n--
	}
	out := make([]epoch.Epoch, n)
	copy(out, c.v[:n])
	c.frozen = &Frozen{v: out}
	c.m.Freezes++
	return c.frozen
}

// JoinFrozen merges a frozen snapshot into c pointwise: c := c ⊔ f, by the
// kernel and under the contract of Join; a nil snapshot is the minimal
// clock.
func (c *VC) JoinFrozen(f *Frozen) { c.join(f.View()) }

// Interner deduplicates frozen snapshots by value: Intern returns one
// canonical *Frozen per distinct clock. The parcheck prepass interns the
// timestamps it publishes so that threads whose clocks coincide (barrier
// rounds, fork fan-outs) share one snapshot, and so the intern hit-rate
// is observable. An Interner is NOT safe for concurrent use; the single
// prepass goroutine owns it.
type Interner struct {
	buckets      map[uint64][]*Frozen
	hits, misses uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{buckets: map[uint64][]*Frozen{}}
}

// Intern returns the canonical snapshot equal to f, registering f as
// canonical if its clock value has not been seen before.
func (in *Interner) Intern(f *Frozen) *Frozen {
	h := frozenHash(f)
	for _, g := range in.buckets[h] {
		if g.Equal(f) {
			in.hits++
			return g
		}
	}
	in.buckets[h] = append(in.buckets[h], f)
	in.misses++
	return f
}

// Stats returns how many Intern calls found an existing snapshot (hits)
// and how many registered a new one (misses). Len is the number of
// distinct clocks interned, which equals misses.
func (in *Interner) Stats() (hits, misses uint64) { return in.hits, in.misses }

// Len returns the number of distinct clocks interned.
func (in *Interner) Len() int { return int(in.misses) }

// frozenHash is FNV-1a over the snapshot's epochs.
func frozenHash(f *Frozen) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < f.Size(); i++ {
		e := uint64(f.v[i])
		for s := 0; s < 64; s += 8 {
			h ^= (e >> s) & 0xff
			h *= prime64
		}
	}
	return h
}
