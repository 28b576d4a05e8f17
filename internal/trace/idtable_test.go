package trace

import (
	"slices"
	"testing"
)

// TestIDTableDenseOrSpill: ids below the window land in the slice, grown
// by doubling and never past the window; every other id, negative ones
// included, lands in the map; and Forget clears exactly the dense entries
// it is given and drops the spilled ones.
func TestIDTableDenseOrSpill(t *testing.T) {
	const window = 1 << 10
	var tab IDTable[Lock, uint32]
	ids := []Lock{0, 5, 63, 64, 200, window - 1, window, 1 << 30, -1, -window}
	for i, id := range ids {
		tab.Set(id, uint32(i+1), window)
	}
	for i, id := range ids {
		if got := tab.Get(id); got != uint32(i+1) {
			t.Errorf("Get(%d) = %d, want %d", id, got, i+1)
		}
	}
	if got := tab.Get(7); got != 0 {
		t.Errorf("Get of an id never set = %d, want 0", got)
	}
	if len(tab.dense) != window {
		t.Errorf("dense slice holds %d ids, want the window, %d", len(tab.dense), window)
	}
	if len(tab.sparse) != 4 {
		t.Errorf("%d ids spilled, want the 4 outside [0, %d): %v", len(tab.sparse), window, tab.sparse)
	}

	var grown IDTable[Lock, uint32]
	var lens []int
	for _, id := range []Lock{0, 63, 64, 129, 300} {
		grown.Set(id, 1, window)
		lens = append(lens, len(grown.dense))
	}
	if want := []int{64, 64, 128, 256, 512}; !slices.Equal(lens, want) {
		t.Errorf("dense lengths %v, want %v (doubling from 64)", lens, want)
	}

	if n := tab.Forget(ids); n != 6 {
		t.Errorf("Forget cleared %d dense entries, want 6", n)
	}
	for _, id := range ids {
		if got := tab.Get(id); got != 0 {
			t.Errorf("after Forget, Get(%d) = %d", id, got)
		}
	}
}
