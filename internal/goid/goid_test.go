package goid

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestIDStableAndDistinct is the correctness contract: an id is stable
// within one goroutine and distinct across live goroutines. Run with
// -race (the repo's race CI job does) to double as a concurrency test of
// the parse path.
func TestIDStableAndDistinct(t *testing.T) {
	const goroutines = 64
	const reads = 200

	ids := make([]int64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			first := ID()
			if first <= 0 {
				t.Errorf("goroutine %d: ID() = %d, want positive", slot, first)
				return
			}
			for j := 0; j < reads; j++ {
				if got := ID(); got != first {
					t.Errorf("goroutine %d: ID changed %d -> %d", slot, first, got)
					return
				}
				if j%16 == 0 {
					runtime.Gosched()
				}
			}
			ids[slot] = first
		}(i)
	}
	wg.Wait()

	seen := map[int64]int{}
	for slot, id := range ids {
		if prev, dup := seen[id]; dup {
			t.Fatalf("goroutines %d and %d share id %d", prev, slot, id)
		}
		seen[id] = slot
	}
}

func TestParseHeader(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"goroutine 1 [running]:\nmain.main()", 1},
		{"goroutine 4711 [runnable]:", 4711},
		{"goroutine 9223372036854775807 [running]:", 9223372036854775807},
		{"garbage", 0},
		{"goroutine x", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := parseHeader([]byte(c.in)); got != c.want {
			t.Errorf("parseHeader(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIDMatchesStackDump(t *testing.T) {
	// Cross-check the small-buffer parse against a full runtime.Stack dump
	// formatted the slow way.
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, false)
	var want int64
	if _, err := fmt.Sscanf(string(buf[:n]), "goroutine %d ", &want); err != nil {
		t.Fatalf("parsing full stack dump: %v", err)
	}
	if got := ID(); got != want {
		t.Fatalf("ID() = %d, full-dump parse = %d", got, want)
	}
}

// BenchmarkID prices the raw capture: one small runtime.Stack call plus
// the header parse, which the instrumentation shim pays once per
// instrumented function call.
func BenchmarkID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ID() <= 0 {
			b.Fatal("bad id")
		}
	}
}
