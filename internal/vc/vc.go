// Package vc implements the grow-on-demand vector clocks of the VerifiedFT
// analysis (§3 and Fig. 3 of the paper).
//
// A vector clock maps every thread id to an epoch for that thread. The
// representation is a slice indexed by thread id, entries beyond the
// slice's length reading as the minimal epoch t@0, exactly as the
// VectorClock.get method in Fig. 3 does. This keeps clocks proportional to
// the highest thread id that has actually synchronized through them rather
// than to the total number of threads.
//
// The well-formedness invariant of §3 — for all t, Tid(V.Get(t)) == t — is
// maintained by every method and checked by the test suite.
//
// VC values are NOT safe for concurrent use; the concurrent detectors in
// internal/core layer their own synchronization disciplines (locks, atomic
// publication) on top, mirroring §4 and §5 of the paper.
package vc

import (
	"strings"

	"repro/internal/epoch"
)

// VC is a dense vector clock. The zero value is the minimal clock ⊥V
// (every entry reads as t@0) and is ready to use.
type VC struct {
	v []epoch.Epoch
	m Metrics
}

// Metrics counts a clock's structural costs. Because a clock is not safe
// for concurrent use, the counters are plain fields updated under whatever
// discipline already protects the clock — they add no synchronization and
// no contention. Callers aggregate them across clocks at quiescence.
type Metrics struct {
	// Grows counts reallocation-and-copy extensions of the representation
	// — the allocation events behind the paper's grow-on-demand clocks.
	// In-place extensions within an array's existing capacity (the
	// geometric-growth headroom) are free and not counted.
	Grows uint64
	// Joins counts Join operations applied to this clock (as destination).
	Joins uint64
	// JoinScanned counts entries compared across all Joins — the O(threads)
	// work epochs exist to avoid on the access paths.
	JoinScanned uint64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Grows += other.Grows
	m.Joins += other.Joins
	m.JoinScanned += other.JoinScanned
}

// Metrics returns the clock's structural counters. Call under the same
// discipline as any other read of the clock.
func (c *VC) Metrics() Metrics { return c.m }

// New returns an empty (minimal) vector clock.
func New() *VC {
	return &VC{}
}

// FromClocks builds a vector clock whose entry for thread i carries clock
// values[i]. It is a convenience for tests and examples that use the paper's
// ⟨m,n⟩ notation.
func FromClocks(values ...uint64) *VC {
	c := &VC{v: make([]epoch.Epoch, len(values))}
	for i, val := range values {
		c.v[i] = epoch.Make(epoch.Tid(i), val)
	}
	return c
}

// Size returns the length of the underlying representation. Entries at index
// >= Size() are implicitly minimal.
func (c *VC) Size() int {
	return len(c.v)
}

// Get returns the epoch recorded for thread t, which is t@0 if t lies beyond
// the current representation.
func (c *VC) Get(t epoch.Tid) epoch.Epoch {
	if int(t) < len(c.v) {
		return c.v[t]
	}
	return epoch.Min(t)
}

// Set records epoch e for thread t, growing the representation if needed.
// The epoch's own tid must equal t so the well-formedness invariant is
// preserved.
func (c *VC) Set(t epoch.Tid, e epoch.Epoch) {
	if e.Tid() != t {
		panic("vc: Set would break well-formedness: epoch tid mismatch")
	}
	c.ensureCapacity(int(t) + 1)
	c.v[t] = e
}

// ensureCapacity grows the representation to at least n entries, filling new
// slots with minimal epochs, as Fig. 3's ensureCapacity does via get.
// Capacity grows geometrically (powers of two), so a clock touched by
// threads 0..k reallocates O(log k) times, not O(k); in-place extensions
// within existing capacity cost only the minimal fill.
func (c *VC) ensureCapacity(n int) {
	if n <= len(c.v) {
		return
	}
	old := len(c.v)
	if n <= cap(c.v) {
		c.v = c.v[:n]
		epoch.FillMin(c.v, 0, old)
		return
	}
	newCap := 4
	for newCap < n {
		newCap *= 2
	}
	grown := make([]epoch.Epoch, n, newCap)
	copy(grown, c.v)
	epoch.FillMin(grown, 0, old)
	c.v = grown
	c.m.Grows++
}

// Inc increments the t-component: V := inc_t(V).
func (c *VC) Inc(t epoch.Tid) {
	if int(t) >= len(c.v) {
		c.ensureCapacity(int(t) + 1)
	}
	c.v[t] = c.v[t].Inc()
}

// Leq reports the pointwise order c ⊑ other: a bulk compare over the
// common prefix (same-tid epochs order by their raw bits), and c's entries
// beyond other's representation must be minimal.
func (c *VC) Leq(other *VC) bool {
	a, b := c.v, other.v
	if len(a) > len(b) {
		for _, e := range a[len(b):] {
			if e.Clock() != 0 {
				return false
			}
		}
		a = a[:len(b)]
	}
	b = b[:len(a)]
	for i, e := range a {
		if e > b[i] {
			return false
		}
	}
	return true
}

// EpochLeq reports e ⪯ c, i.e. whether epoch e happens before this clock:
// e <= c.Get(e.Tid()). It must not be called with the Shared marker.
func (c *VC) EpochLeq(e epoch.Epoch) bool {
	return e.Leq(c.Get(e.Tid()))
}

// View returns the clock's entries without copying: entry i belongs to
// thread i and entries beyond the slice are minimal. The slice is
// read-only and valid until the clock's next mutation; it is what the
// access-rule kernel (internal/core) compares epochs against.
func (c *VC) View() []epoch.Epoch { return c.v }

// Join merges other into c pointwise: c := c ⊔ other.
//
// A join whose argument is entirely ⊑ c (a never-released lock,
// re-acquiring a lock the thread itself released last, barrier
// re-arrivals) leaves c's value and size unchanged. It is not write-free:
// the kernel stores every scanned entry unconditionally, so c must be
// confined to its owner for the duration of the call — which the Metrics
// counters have always required.
//
// Fig. 3 writes the join as a get/set call per entry; this is the same
// pointwise maximum with the per-entry bounds, well-formedness and
// capacity checks hoisted out of the loop, and the "did this entry
// advance" decision taken by arithmetic (max compiles to a conditional
// move) instead of a branch the predictor cannot learn when the two clocks
// interleave. Same-tid epochs order by their raw bits, so the integer max
// is the pointwise order.
func (c *VC) Join(other *VC) {
	src := other.v
	c.m.Joins++
	c.m.JoinScanned += uint64(len(src))
	// Entries of src beyond c's representation that are minimal cannot
	// raise anything: trimming them keeps a covered join from growing c.
	n := len(src)
	for n > len(c.v) && src[n-1].Clock() == 0 {
		n--
	}
	src = src[:n]
	if n > len(c.v) {
		c.ensureCapacity(n)
	}
	dst := c.v[:len(src)]
	for i, e := range src {
		dst[i] = max(dst[i], e)
	}
}

// Assign overwrites c with other's contents: c := other (Fig. 3's copy).
// It is a single grow-and-copy: one capacity check and a bulk copy — where
// a per-entry Set loop would pay the capacity check and the
// well-formedness branch n times.
// Entries beyond other's representation are reset to minimal, so the
// result denotes exactly other's value regardless of c's previous size.
func (c *VC) Assign(other *VC) {
	c.ensureCapacity(len(other.v))
	copy(c.v, other.v)
	epoch.FillMin(c.v, 0, len(other.v))
}

// Clone returns an independent copy of c's clock value. The copy starts
// with zero Metrics (counters describe one clock object's life, not the
// value's history).
func (c *VC) Clone() *VC {
	out := &VC{v: make([]epoch.Epoch, len(c.v))}
	copy(out.v, c.v)
	return out
}

// Equal reports whether two clocks agree at every index (treating implicit
// minimal entries as equal to explicit ones).
func (c *VC) Equal(other *VC) bool {
	return c.Leq(other) && other.Leq(c)
}

// Snapshot returns the raw epochs up to Size; used by the concurrent
// detectors to publish immutable copies.
func (c *VC) Snapshot() []epoch.Epoch {
	out := make([]epoch.Epoch, len(c.v))
	copy(out, c.v)
	return out
}

// FromSnapshot wraps a raw epoch slice (tid i at index i) as a VC. The slice
// must be well-formed; ownership transfers to the VC.
func FromSnapshot(v []epoch.Epoch) *VC {
	for i, e := range v {
		if e.Tid() != epoch.Tid(i) {
			panic("vc: FromSnapshot: ill-formed entry")
		}
	}
	return &VC{v: v}
}

// String renders the clock in the paper's ⟨c0,c1,...⟩ clock-list notation.
func (c *VC) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, e := range c.v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.String())
	}
	b.WriteByte('>')
	return b.String()
}
