package trace

// IDTable maps ids to values, the zero V meaning absent. It is the one
// dense-or-spill rule of the check path: an id below its owner's window
// lives in a slice grown by doubling, and every other id — past the window,
// or negative (read as uint32) — in a map, so one hostile id costs a map
// entry, never a slice as long as its magnitude. The owner passes its
// window to Set and keeps it: an id is dense or spilled by it alone.
type IDTable[ID ~int32, V comparable] struct {
	dense  []V
	sparse map[ID]V
}

// Get returns id's value, or the zero V. A dense id, which nearly every
// id is, is answered without a call.
func (t *IDTable[ID, V]) Get(id ID) V {
	if uint32(id) < uint32(len(t.dense)) {
		return t.dense[id]
	}
	return t.sparse[id]
}

// Set gives id the value v; window is the owner's dense window.
func (t *IDTable[ID, V]) Set(id ID, v V, window uint32) {
	if uint32(id) >= window {
		if t.sparse == nil {
			t.sparse = map[ID]V{}
		}
		t.sparse[id] = v
		return
	}
	if int(id) >= len(t.dense) {
		grown := make([]V, min(max(2*len(t.dense), int(id)+1, 64), int(window)))
		copy(grown, t.dense)
		t.dense = grown
	}
	t.dense[id] = v
}

// Forget clears ids' dense entries and drops the spilled ones, returning
// how many dense entries it cleared: a table whose owner lists every id it
// sets empties in what those ids cost, not in what the slice holds.
func (t *IDTable[ID, V]) Forget(ids []ID) int {
	n := 0
	var zero V
	for _, id := range ids {
		if uint32(id) < uint32(len(t.dense)) {
			t.dense[id] = zero
			n++
		}
	}
	t.sparse = nil
	return n
}
