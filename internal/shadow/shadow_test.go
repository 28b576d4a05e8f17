package shadow

import (
	"sync"
	"testing"
)

type payload struct {
	id int
}

func newTable() *Table[payload] {
	return NewTable(func(id int) *payload { return &payload{id: id} })
}

func TestGetCreatesEntries(t *testing.T) {
	tb := newTable()
	p := tb.Get(5)
	if p == nil || p.id != 5 {
		t.Fatalf("Get(5) = %+v", p)
	}
	if tb.Len() < 6 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// All intermediate entries exist and carry their own ids.
	for i := 0; i < 6; i++ {
		if got := tb.Get(i); got.id != i {
			t.Fatalf("Get(%d).id = %d", i, got.id)
		}
	}
}

func TestPointerStability(t *testing.T) {
	tb := newTable()
	p0 := tb.Get(0)
	tb.Get(1000) // force several growths
	if tb.Get(0) != p0 {
		t.Fatal("entry pointer changed across growth")
	}
}

func TestNegativeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	newTable().Get(-1)
}

func TestNilInitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewTable[payload](nil)
}

func TestSnapshotSeesEntries(t *testing.T) {
	tb := newTable()
	if s := tb.Snapshot(); len(s) != 0 {
		t.Fatalf("Snapshot of a new table = %v, want empty", s)
	}
	tb.Get(2)
	s := tb.Snapshot()
	if len(s) < 3 || s[2].id != 2 {
		t.Fatalf("Snapshot = %v", s)
	}
}

// Concurrent Gets on overlapping id ranges must return one stable object per
// id. Run with -race.
func TestConcurrentGetUniqueness(t *testing.T) {
	tb := newTable()
	const goroutines = 8
	const ids = 512
	results := make([][]*payload, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		results[g] = make([]*payload, ids)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				results[g][i] = tb.Get(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < ids; i++ {
		first := results[0][i]
		if first.id != i {
			t.Fatalf("id %d payload has id %d", i, first.id)
		}
		for g := 1; g < goroutines; g++ {
			if results[g][i] != first {
				t.Fatalf("id %d resolved to different objects across goroutines", i)
			}
		}
	}
}

// Snapshots taken while other goroutines force repeated growth must always
// be fully populated (no nil entries, every payload carrying its own id)
// and must agree with the growers on object identity. Run with -race: this
// is the stress test behind Snapshot's concurrent-growth guarantee, which
// the parallel checker's stats pass relies on.
func TestSnapshotDuringGrow(t *testing.T) {
	tb := newTable()
	const growers = 4
	const maxID = 2048
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < growers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < maxID; i += growers {
				tb.Get(i)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	snapshots := 0
	for {
		s := tb.Snapshot()
		snapshots++
		for i, p := range s {
			if p == nil {
				t.Fatalf("snapshot %d: nil entry at id %d (len %d)", snapshots, i, len(s))
			}
			if p.id != i {
				t.Fatalf("snapshot %d: entry %d has id %d", snapshots, i, p.id)
			}
		}
		select {
		case <-done:
			if final := tb.Snapshot(); len(final) < maxID {
				t.Fatalf("final snapshot len %d, want >= %d", len(final), maxID)
			}
			// Identity: entries in the final snapshot are what Get returns.
			for _, i := range []int{0, 1, maxID / 2, maxID - 1} {
				if tb.Snapshot()[i] != tb.Get(i) {
					t.Fatalf("snapshot entry %d differs from Get", i)
				}
			}
			return
		default:
		}
	}
}

func BenchmarkGetHot(b *testing.B) {
	tb := newTable()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tb.Get(i & 63)
			i++
		}
	})
}
