// Package shadow provides the shadow-state repository underneath the
// concurrent detectors: dense, lock-free-on-read tables mapping small
// integer ids (thread, variable, lock) to their shadow objects.
//
// This plays the role RoadRunner's runtime plays for the paper's Java
// implementation (§7): it maintains a one-to-one mapping between program
// entities and their ThreadState/LockState/VarState objects. Entries are
// created on first use and never replaced, so a pointer obtained from Get
// stays valid for the lifetime of the table — the property the detectors'
// synchronization disciplines rely on.
package shadow

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Table is a grow-on-demand array of *T indexed by a small non-negative id.
// Get is lock-free once an id has been populated: the common case costs one
// atomic pointer load and an index. Growth copies the (pointer) slice under
// a mutex and publishes it atomically; existing entries are shared between
// the old and new slices, so readers racing with growth still observe the
// same objects.
type Table[T any] struct {
	mu   sync.Mutex
	p    atomic.Pointer[[]*T]
	init func(id int) *T
}

// NewTable returns an empty table whose entries are created by init (which
// must not return nil) the first time an id at or beyond them is named.
func NewTable[T any](init func(id int) *T) *Table[T] {
	if init == nil {
		panic("shadow: NewTable requires an init function")
	}
	t := &Table[T]{init: init}
	t.p.Store(new([]*T))
	return t
}

// Get returns the entry for id, creating it (and growing the table) if
// needed. It is safe for concurrent use.
func (t *Table[T]) Get(id int) *T {
	if id < 0 {
		panic(fmt.Sprintf("shadow: negative id %d", id))
	}
	s := *t.p.Load()
	if id < len(s) {
		return s[id]
	}
	return t.grow(id)
}

// Len returns the current number of populated entries.
func (t *Table[T]) Len() int {
	return len(*t.p.Load())
}

// Snapshot returns the current entries; the slice must not be mutated.
//
// Snapshot is safe to call while other goroutines grow the table: grow
// fully populates the new slice (copying old entries and running init for
// new ids) before publishing it with a single atomic store, so a snapshot
// is always either the previous slice or a complete new one — never a
// partially-initialized view. Entry pointers are shared across growths,
// so objects reached through an old snapshot are the live objects.
func (t *Table[T]) Snapshot() []*T {
	return *t.p.Load()
}

// grow extends the table to cover id and returns its entry.
func (t *Table[T]) grow(id int) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := *t.p.Load()
	if id < len(s) { // raced with another grower
		return s[id]
	}
	newLen := len(s) * 2
	if newLen <= id {
		newLen = id + 1
	}
	grown := make([]*T, newLen)
	copy(grown, s)
	for i := len(s); i < newLen; i++ {
		grown[i] = t.init(i)
	}
	t.p.Store(&grown)
	return grown[id]
}
