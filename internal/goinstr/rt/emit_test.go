package rt

import (
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/parcheck"
	"repro/internal/trace"
)

// TestEncoderMatchesDecoder writes records of every kind the shim emits,
// with thread ids and operands at each uvarint width boundary, straight
// through the encoder, and enough of them that the capture crosses the
// 64 KiB buffer several times; trace.NewBinaryDecoder must read back
// exactly those operations. The first record is infeasible, so the inline
// check stops before the ids, which no run names this sparsely, reach the
// machine's dense tables.
func TestEncoderMatchesDecoder(t *testing.T) {
	path := resetForTest(t)
	kinds := []trace.Kind{
		trace.Read, trace.Write, trace.Acquire, trace.Release, trace.Fork,
		trace.ChanSend, trace.ChanRecv, trace.ChanClose,
		trace.AtomicLoad, trace.AtomicStore, trace.AtomicRMW, trace.OnceDo,
	}
	ids := []int32{0, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, math.MaxInt32}
	want := trace.Trace{trace.Rel(0, 0)}
	st.mu.Lock()
	if !st.capturingLocked() {
		t.Fatal("capture did not start")
	}
	st.emitLocked(trace.Release, 0, 0)
	for len(want)*2 < 3*bufSize/2 { // records average above 2 bytes: > 3 buffers
		for _, k := range kinds {
			for _, tid := range ids {
				for _, arg := range ids {
					st.emitLocked(k, tid, arg)
					var op trace.Op
					op.SetRecord(k, tid, arg)
					want = append(want, op)
				}
			}
		}
	}
	st.mu.Unlock()
	Shutdown()

	if fi, err := os.Stat(path); err != nil || fi.Size() < 3*bufSize {
		t.Fatalf("capture of %d records: %v, %v; want more than three buffers", len(want), fi, err)
	}
	got := decodeTrace(t, path)
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d decodes to %v, wrote %v", i, got[i], want[i])
		}
	}
}

// TestInlineCheckMatchesCapture runs racy and race-free goroutines
// through the wrappers and requires the sidecar's verdict to be what the
// offline path finds in the capture.
func TestInlineCheckMatchesCapture(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var mu sync.Mutex
	var guarded, racy int
	ch := make(chan int, 2)
	var wg sync.WaitGroup
	WGAdd(g, &wg, 2)
	for i := 0; i < 2; i++ {
		go Spawn(Fork(g), func() {
			cg := Bind()
			MutexLock(cg, &mu)
			(*RdWr(cg, "guarded", &guarded))++
			MutexUnlock(cg, &mu)
			(*RdWr(cg, "racy", &racy))++
			Send(cg, ch, i)
			WGDone(cg, &wg)
		})
	}
	WGWait(g, &wg)
	Recv(g, ch)
	Recv(g, ch)
	Shutdown()

	meta := loadMeta(t, path)
	if meta.Error != "" {
		t.Fatalf("inline check failed: %s", meta.Error)
	}
	want, err := parcheck.CheckTrace(decodeTrace(t, path), extFromMeta(meta), parcheck.Options{MaxReportsPerVar: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(meta.Reports, want) {
		t.Errorf("inline reports %v, the capture's %v", meta.Reports, want)
	}
	if len(meta.Reports) != 1 || len(meta.Vars) != 1 || meta.Vars[meta.Reports[0].X] != "racy" {
		t.Errorf("reports %v (vars %v), want one race on racy", meta.Reports, meta.Vars)
	}
}

// TestInlineCheckStopsAtInfeasibleRecord feeds the shim a record sequence
// no execution produces — a release of a lock nobody holds — and requires
// the sidecar to carry the validator's positioned error and no reports,
// while the capture keeps every record.
func TestInlineCheckStopsAtInfeasibleRecord(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var x int
	*Wr(g, "x", &x) = 1
	emit(trace.Release, g.tid, 3) // #1
	*Wr(g, "x", &x) = 2
	Shutdown()

	meta := loadMeta(t, path)
	want := "trace: infeasible at #1 rel(0,m3): constraint (2): thread 0 releases lock m3 it does not hold"
	if meta.Error != want || len(meta.Reports) != 0 {
		t.Errorf("sidecar error %q, reports %v; want %q and none", meta.Error, meta.Reports, want)
	}
	if err := trace.Validate(decodeTrace(t, path)); err == nil || err.Error() != want {
		t.Errorf("the capture validates to %v, want %q", err, want)
	}
	if n := len(decodeTrace(t, path)); n != 3 {
		t.Errorf("capture holds %d records, want 3", n)
	}
}

// firstTouches writes n distinct variables once each, as a program filling
// a fresh slice does: n ids, none of them raced on.
func firstTouches(g *G, n int) {
	xs := make([]int, n)
	for i := range xs {
		*Wr(g, "xs t.go:1:1", &xs[i]) = i
	}
}

// TestSidecarGrowsWithReports: a run that interns 100,000 variables and
// races on none writes a sidecar that names none of them; one that also
// races on one names exactly that one, the variable its report names.
func TestSidecarGrowsWithReports(t *testing.T) {
	const vars = 100_000
	sidecar := func(path string) *Meta {
		t.Helper()
		fi, err := os.Stat(MetaPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() >= 4<<10 {
			t.Errorf("the sidecar of a run over %d variables holds %d bytes, want under 4 KiB", vars, fi.Size())
		}
		return loadMeta(t, path)
	}

	path := resetForTest(t)
	firstTouches(Bind(), vars)
	Shutdown()
	if meta := sidecar(path); len(meta.Reports) != 0 || len(meta.Vars) != 0 || meta.Events != vars {
		t.Errorf("sidecar: %d events, reports %v, %d names; want %d events and no report or name", meta.Events, meta.Reports, len(meta.Vars), vars)
	}

	path = resetForTest(t)
	g := Bind()
	firstTouches(g, vars)
	var racy int
	var wg sync.WaitGroup
	wg.Add(2)
	for range 2 {
		go Spawn(Fork(g), func() {
			*Wr(Bind(), "racy t.go:2:1", &racy) = 1
			wg.Done()
		})
	}
	wg.Wait()
	Shutdown()
	meta := sidecar(path)
	if len(meta.Reports) != 1 || len(meta.Vars) != 1 || meta.Vars[meta.Reports[0].X] != "racy t.go:2:1" {
		t.Errorf("reports %v and %d names, want one race named racy t.go:2:1 and no other name", meta.Reports, len(meta.Vars))
	}
}

// BenchmarkShutdown prices the end of a run over many variables: one
// iteration interns 100,000 of them, then runs Shutdown, whose sidecar
// names only the reported ones (here none).
func BenchmarkShutdown(b *testing.B) {
	var size int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := resetForTest(b)
		g := Bind()
		b.StartTimer()
		firstTouches(g, 100_000)
		Shutdown()
		b.StopTimer()
		fi, err := os.Stat(MetaPath(path))
		if err != nil {
			b.Fatal(err)
		}
		size = fi.Size()
	}
	b.ReportMetric(float64(size), "sidecar-B")
}

// BenchmarkEmit is the shim's cost per logged event with capture on: the
// interning, the record's append to the buffer (and its share of the
// writes to the file) and the inline check, under st.mu.
func BenchmarkEmit(b *testing.B) {
	for _, bc := range []struct {
		name   string
		events int
		op     func(g *G, x *int, mu *sync.Mutex)
	}{
		{"Rd", 1, func(g *G, x *int, _ *sync.Mutex) { Rd(g, "x", x) }},
		{"RdWr", 2, func(g *G, x *int, _ *sync.Mutex) { RdWr(g, "x", x) }},
		{"MutexLockUnlock", 2, func(g *G, _ *int, mu *sync.Mutex) {
			MutexLock(g, mu)
			MutexUnlock(g, mu)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			resetForTest(b)
			g := Bind()
			var x int
			var mu sync.Mutex
			capturing() // opens the capture outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(g, &x, &mu)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.events), "ns/event")
			Shutdown()
			if meta := loadMeta(b, os.Getenv(EnvTrace)); meta.Error != "" || meta.Events != uint64(b.N*bc.events) {
				b.Fatalf("sidecar: error %q after %d events, want none after %d", meta.Error, meta.Events, b.N*bc.events)
			}
		})
	}
}
