package rt

// The shim cannot import internal/trace (it travels into shadow modules),
// so these tests are the bond between the two: they decode the shim's
// output with the real trace.NewBinaryDecoder, pin the kind bytes to the
// trace.Kind enumeration, and feed captured streams to the rule-6
// validator to prove the log-ordering gadget emits only feasible traces.
// Run with -race: the gadget's own locking is part of the contract.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/goid"
	"repro/internal/trace"
)

// resetForTest points the singleton at a fresh capture file and clears
// every id table and counter, so each test sees deterministic ids with
// the test's own goroutine as thread 0.
func resetForTest(t *testing.T) (tracePath string) {
	t.Helper()
	dir := t.TempDir()
	tracePath = filepath.Join(dir, "out.vft")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(EnvMeta, tracePath+".meta.json")

	st.mu.Lock()
	defer st.mu.Unlock()
	st.file = f
	st.w = bufio.NewWriter(f)
	st.active = true
	st.opened = false
	st.nextTid = 1
	st.vars = map[unsafe.Pointer]int32{}
	st.atomics = map[unsafe.Pointer]int32{}
	st.locks = map[unsafe.Pointer]int32{}
	st.onces = map[unsafe.Pointer]int32{}
	st.chanIDs = map[unsafe.Pointer]*chanState{}
	st.varNames = map[int32]string{}
	st.atomicNames = map[int32]string{}
	st.lockNames = map[int32]string{}
	st.onceNames = map[int32]string{}
	st.chanMeta = map[int32]chanMetaEntry{}
	st.events = 0
	st.byKind = [numKinds]uint64{}
	st.dropped = 0
	st.timeouts = 0
	st.gs.Put(goid.ID(), &G{tid: 0})
	return tracePath
}

func decodeTrace(t *testing.T, path string) trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadAll(trace.NewBinaryDecoder(f))
	if err != nil {
		t.Fatalf("decoding shim output with trace.NewBinaryDecoder: %v", err)
	}
	return tr
}

func loadMeta(t *testing.T, path string) *Meta {
	t.Helper()
	b, err := os.ReadFile(path + ".meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("meta sidecar: %v", err)
	}
	return &m
}

func extFromMeta(m *Meta) *trace.Extensions {
	caps := map[trace.Lock]int{}
	for id, e := range m.Chans {
		caps[trace.Lock(id)] = e.Cap
	}
	return &trace.Extensions{ChanCapacity: caps}
}

// TestKindBytesMatchTrace pins the shim's private kind constants to the
// trace package's enumeration, byte for byte.
func TestKindBytesMatchTrace(t *testing.T) {
	pairs := []struct {
		shim uint8
		real trace.Kind
	}{
		{kRead, trace.Read}, {kWrite, trace.Write},
		{kAcquire, trace.Acquire}, {kRelease, trace.Release},
		{kFork, trace.Fork}, {kJoin, trace.Join},
		{kVolatileRead, trace.VolatileRead}, {kVolatileWrite, trace.VolatileWrite},
		{kBarrier, trace.Barrier},
		{kChanSend, trace.ChanSend}, {kChanRecv, trace.ChanRecv}, {kChanClose, trace.ChanClose},
		{kAtomicLoad, trace.AtomicLoad}, {kAtomicStore, trace.AtomicStore}, {kAtomicRMW, trace.AtomicRMW},
		{kOnceDo, trace.OnceDo},
	}
	for _, p := range pairs {
		if trace.Kind(p.shim) != p.real {
			t.Errorf("shim kind %d != trace.%v (%d)", p.shim, p.real, uint8(p.real))
		}
	}
	if int(numKinds) != len(pairs) {
		t.Errorf("shim knows %d kinds, table pins %d", numKinds, len(pairs))
	}
}

// TestSequentialEventsDecode drives every basic wrapper on one goroutine
// and checks the decoded stream op by op.
func TestSequentialEventsDecode(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	if g.Tid() != 0 {
		t.Fatalf("test goroutine bound to tid %d, want 0", g.Tid())
	}

	var x, y int
	var mu sync.Mutex
	if got := Rd(g, "x t.go:1:1", &x); got != 0 {
		t.Fatalf("Rd returned %d", got)
	}
	*Wr(g, "x t.go:1:1", &x) = 41
	(*RdWr(g, "x t.go:1:1", &x))++
	if x != 42 {
		t.Fatalf("x = %d after wrapped writes, want 42", x)
	}
	*Wr(g, "y t.go:2:1", &y) = 7
	MutexLock(g, "mu t.go:3:1", &mu)
	MutexUnlock(g, "mu t.go:3:1", &mu)
	if !MutexTryLock(g, "mu t.go:3:1", &mu) {
		t.Fatal("TryLock on free mutex failed")
	}
	MutexUnlock(g, "mu t.go:3:1", &mu)
	var a32 int32
	AStore(g, "a32 t.go:4:1", &a32, 5, atomic.StoreInt32)
	if ALoad(g, "a32 t.go:4:1", &a32, atomic.LoadInt32) != 5 {
		t.Fatal("atomic roundtrip")
	}
	Shutdown()

	want := trace.Trace{
		trace.Rd(0, 0),                 // Rd x
		trace.Wr(0, 0),                 // Wr x
		trace.Rd(0, 0), trace.Wr(0, 0), // RdWr x
		trace.Wr(0, 1), // Wr y (second var id)
		trace.Acq(0, 0), trace.Rel(0, 0),
		trace.Acq(0, 0), trace.Rel(0, 0), // TryLock + Unlock
		trace.AStore(0, 0), trace.ALoad(0, 0),
	}
	got := decodeTrace(t, path)
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %v, want %v", i, got[i], want[i])
		}
	}

	meta := loadMeta(t, path)
	if meta.Vars[0] != "x t.go:1:1" || meta.Vars[1] != "y t.go:2:1" {
		t.Errorf("var names = %v", meta.Vars)
	}
	if meta.Locks[0] != "mu t.go:3:1" {
		t.Errorf("lock names = %v", meta.Locks)
	}
	if meta.Events != uint64(len(want)) {
		t.Errorf("meta.Events = %d, want %d", meta.Events, len(want))
	}
}

// TestForkSpawnFeasible runs instrumented-style goroutines (Fork + Spawn,
// mutex-guarded counter, WaitGroup wrappers) and validates the captured
// stream under the rule-6 validator.
func TestForkSpawnFeasible(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var counter int

	const children = 4
	WGAdd(g, "wg", &wg, children)
	for i := 0; i < children; i++ {
		go Spawn(Fork(g), func() {
			cg := Bind()
			for j := 0; j < 25; j++ {
				MutexLock(cg, "mu", &mu)
				(*RdWr(cg, "counter", &counter))++
				MutexUnlock(cg, "mu", &mu)
			}
			WGDone(cg, "wg", &wg)
		})
	}
	WGWait(g, "wg", &wg)
	if got := Rd(g, "counter", &counter); got != children*25 {
		t.Fatalf("counter = %d", got)
	}
	Shutdown()

	tr := decodeTrace(t, path)
	if err := trace.ValidateExt(tr, nil); err != nil {
		t.Fatalf("captured stream infeasible: %v", err)
	}
	// Spawned goroutines must have bound to their forked tids, not been
	// adopted: exactly `children` forks, all from thread 0.
	forks := 0
	for _, op := range tr {
		if op.Kind == trace.Fork {
			forks++
			if op.T != 0 {
				t.Errorf("fork from thread %d, want 0: %v", op.T, op)
			}
		}
	}
	if forks != children {
		t.Errorf("%d forks, want %d", forks, children)
	}
}

// TestChannelGadgetFeasible hammers buffered and unbuffered channels with
// competing senders and receivers, closes and drains, and requires the
// validator to accept the log. Under -race this is also the gadget's
// locking test.
func TestChannelGadgetFeasible(t *testing.T) {
	path := resetForTest(t)
	g := Bind()

	buf := make(chan int, 2)
	rdv := make(chan int)

	const senders = 3
	const perSender = 40
	var wg sync.WaitGroup
	wg.Add(senders + 1)
	for i := 0; i < senders; i++ {
		go Spawn(Fork(g), func() {
			cg := Bind()
			for j := 0; j < perSender; j++ {
				Send(cg, "buf", buf, j)
			}
			wg.Done()
		})
	}
	go Spawn(Fork(g), func() {
		cg := Bind()
		for j := 0; j < perSender; j++ {
			Send(cg, "rdv", rdv, j)
		}
		wg.Done()
	})

	sum := 0
	for j := 0; j < senders*perSender; j++ {
		sum += Recv(g, "buf", buf)
	}
	for j := 0; j < perSender; j++ {
		v, ok := Recv2(g, "rdv", rdv)
		if !ok {
			t.Fatal("rendezvous channel closed early")
		}
		sum += v
	}
	wg.Wait()
	CloseChan(g, "buf", buf)
	if _, ok := Recv2(g, "buf", buf); ok {
		t.Fatal("drained closed channel returned ok=true")
	}
	_ = sum
	Shutdown()

	tr := decodeTrace(t, path)
	meta := loadMeta(t, path)
	if err := trace.ValidateExt(tr, extFromMeta(meta)); err != nil {
		t.Fatalf("captured channel stream infeasible: %v", err)
	}
	if meta.Dropped != 0 {
		t.Errorf("%d events dropped on the non-select path", meta.Dropped)
	}
	// The capacity snapshot must have seen both channels.
	caps := map[int]bool{}
	for _, e := range meta.Chans {
		caps[e.Cap] = true
	}
	if !caps[2] || !caps[0] {
		t.Errorf("channel capacities in meta = %v, want one cap-2 and one cap-0", meta.Chans)
	}
}

// TestWaitGroupOrdering asserts the Done-before-Wait log discipline: the
// parent's post-Wait load is preceded in the stream by every child Done.
func TestWaitGroupOrdering(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var wg sync.WaitGroup
	WGAdd(g, "wg", &wg, 2)
	for i := 0; i < 2; i++ {
		go Spawn(Fork(g), func() {
			WGDone(Bind(), "wg", &wg)
		})
	}
	WGWait(g, "wg", &wg)
	Shutdown()

	tr := decodeTrace(t, path)
	waitIdx, rmws := -1, 0
	for i, op := range tr {
		switch op.Kind {
		case trace.AtomicLoad:
			waitIdx = i
		case trace.AtomicRMW:
			if waitIdx >= 0 {
				t.Fatalf("RMW (Add/Done) at %d after the Wait load at %d", i, waitIdx)
			}
			rmws++
		}
	}
	if rmws != 2 || waitIdx < 0 {
		t.Fatalf("stream %v: want 2 RMWs (the Dones) before one load", tr)
	}
	if err := trace.ValidateExt(tr, nil); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestWGAddLogsOnlyDecrements: an Add with a positive delta releases
// nothing — sync.WaitGroup.Add calls race.ReleaseMerge only when delta < 0
// — so it logs nothing; an Add with a negative delta is a Done and logs
// exactly the record Done does.
func TestWGAddLogsOnlyDecrements(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var wg sync.WaitGroup
	before := loggedEvents()
	WGAdd(g, "wg", &wg, 1)
	if n := loggedEvents() - before; n != 0 {
		t.Errorf("WGAdd(+1) logged %d records, want none", n)
	}
	WGAdd(g, "wg", &wg, -1)
	WGAdd(g, "wg", &wg, 1)
	WGDone(g, "wg", &wg)
	Shutdown()

	tr := decodeTrace(t, path)
	if len(tr) != 2 || tr[0] != tr[1] || tr[0].Kind != trace.AtomicRMW || tr[0].T != 0 {
		t.Fatalf("stream %v: want WGAdd(-1) and WGDone to log one identical RMW each", tr)
	}
}

// TestOnceExecutorFirst races OnceDo from several goroutines and checks
// that the first once record in the stream names the thread that actually
// ran f — that is how the lowering picks the publishing side.
func TestOnceExecutorFirst(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var once sync.Once
	var executor int32 = -1
	var wg sync.WaitGroup
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go Spawn(Fork(g), func() {
			cg := Bind()
			OnceDo(cg, "once", &once, func() { executor = cg.Tid() })
			wg.Done()
		})
	}
	wg.Wait()
	Shutdown()

	tr := decodeTrace(t, path)
	for _, op := range tr {
		if op.Kind == trace.OnceDo {
			if int32(op.T) != executor {
				t.Fatalf("first once record on thread %d, executor was %d", op.T, executor)
			}
			break
		}
	}
	if err := trace.ValidateExt(tr, nil); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestAdoptedGoroutine starts a goroutine outside Fork/Spawn — as an
// uninstrumented library would — and checks it gets adopted with a
// feasible synthetic fork.
func TestAdoptedGoroutine(t *testing.T) {
	path := resetForTest(t)
	_ = Bind()
	var x int
	done := make(chan struct{})
	go func() {
		cg := Bind()
		*Wr(cg, "x", &x) = 1
		close(done)
	}()
	<-done
	Shutdown()

	tr := decodeTrace(t, path)
	if err := trace.ValidateExt(tr, nil); err != nil {
		t.Fatalf("adopted goroutine stream infeasible: %v", err)
	}
	if len(tr) != 2 || tr[0].Kind != trace.Fork || tr[1].Kind != trace.Write {
		t.Fatalf("stream = %v, want [fork, wr]", tr)
	}
}

// TestMapWrappers covers the map access family (maps trace at whole-map
// granularity through the header pointer).
func TestMapWrappers(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	m := map[string]int{}
	MapWr(g, "m", m, "a", 1)
	if MapRd(g, "m", m, "a") != 1 {
		t.Fatal("MapRd")
	}
	if _, ok := MapRd2(g, "m", m, "b"); ok {
		t.Fatal("MapRd2 phantom key")
	}
	n := 0
	for range MapRange(g, "m", m) {
		n++
	}
	MapDel(g, "m", m, "a")
	if n != 1 || len(m) != 0 {
		t.Fatalf("map state wrong: n=%d len=%d", n, len(m))
	}
	Shutdown()

	want := []trace.Kind{trace.Write, trace.Read, trace.Read, trace.Read, trace.Write}
	tr := decodeTrace(t, path)
	if len(tr) != len(want) {
		t.Fatalf("ops = %v", tr)
	}
	for i, k := range want {
		if tr[i].Kind != k || tr[i].X != 0 {
			t.Errorf("op %d = %v, want kind %v on x0", i, tr[i], k)
		}
	}
}

// TestDisabledPassThrough verifies that with capture off every wrapper
// still performs its underlying operation and writes nothing.
func TestDisabledPassThrough(t *testing.T) {
	path := resetForTest(t)
	st.mu.Lock()
	st.active = false
	st.mu.Unlock()

	g := Bind()
	var x int
	*Wr(g, "x", &x) = 9
	if Rd(g, "x", &x) != 9 {
		t.Fatal("pass-through Rd/Wr")
	}
	ch := make(chan int, 1)
	Send(g, "ch", ch, 3)
	if Recv(g, "ch", ch) != 3 {
		t.Fatal("pass-through Send/Recv")
	}
	CloseChan(g, "ch", ch)
	if _, ok := Recv2(g, "ch", ch); ok {
		t.Fatal("pass-through Recv2 after close")
	}
	var once sync.Once
	ran := false
	OnceDo(g, "once", &once, func() { ran = true })
	if !ran {
		t.Fatal("pass-through OnceDo")
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("capture file written while disabled: %d bytes", fi.Size())
	}
}

// TestUninstrumentedProducerFallsBack receives from a channel whose
// sender never logs — as time.After, ticker.C or any raw goroutine in
// uninstrumented code would — and requires the receive to complete
// promptly with the record dropped, rather than the real goroutine
// blocking forever on a send record that will never come. Regression
// test for the gadget's lossy-channel fallback.
func TestUninstrumentedProducerFallsBack(t *testing.T) {
	path := resetForTest(t)
	t.Setenv(EnvChanWait, "20ms")
	_ = Bind()

	ch := make(chan int)
	go func() { ch <- 7 }() // raw, uninstrumented sender: no send record
	done := make(chan int, 1)
	go func() {
		cg := Bind()
		done <- Recv(cg, "ch", ch)
	}()
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("Recv = %d, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung on a channel with an uninstrumented sender")
	}

	// The channel went lossy on the first timeout: a second receive must
	// fall back immediately, without paying the wait again.
	go func() { ch <- 8 }()
	go func() {
		cg := Bind()
		done <- Recv(cg, "ch", ch)
	}()
	select {
	case v := <-done:
		if v != 8 {
			t.Fatalf("second Recv = %d, want 8", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Recv hung on a lossy channel")
	}
	Shutdown()

	tr := decodeTrace(t, path)
	for _, op := range tr {
		if op.Kind == trace.ChanRecv {
			t.Fatalf("unjustifiable receive was emitted: %v", tr)
		}
	}
	meta := loadMeta(t, path)
	if meta.Dropped != 2 {
		t.Errorf("dropped = %d, want 2 (both unjustifiable receives)", meta.Dropped)
	}
	if meta.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (only the first receive waits)", meta.Timeouts)
	}
	if err := trace.ValidateExt(tr, extFromMeta(meta)); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestSelectSendCloseRaceCreditsReceiver forges the select-send/close log
// race: the send committed for real but its record lands after a logged
// close and is dropped. The goroutine that really received the value must
// not block waiting for that send record — the drop credits it, and its
// receive is logged justified by the close instead.
func TestSelectSendCloseRaceCreditsReceiver(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	ch := make(chan int, 1)

	select {
	case ch <- 1: // real send committed, not yet logged (select path)
	default:
		t.Fatal("buffered send blocked")
	}
	CloseChan(g, "ch", ch) // close logged before the select send's record
	SendSel(g, "ch", ch)   // too late: dropped, credits the receiver

	done := make(chan struct{})
	go func() {
		defer close(done)
		cg := Bind()
		if v, ok := Recv2(cg, "ch", ch); v != 1 || !ok {
			t.Errorf("Recv2 = %d, %v; want 1, true", v, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver of the dropped select send hung")
	}
	Shutdown()

	tr := decodeTrace(t, path)
	meta := loadMeta(t, path)
	closeIdx, recvIdx := -1, -1
	for i, op := range tr {
		switch op.Kind {
		case trace.ChanClose:
			closeIdx = i
		case trace.ChanRecv:
			recvIdx = i
		case trace.ChanSend:
			t.Fatalf("dropped select send was emitted: %v", tr)
		}
	}
	if closeIdx < 0 || recvIdx < closeIdx {
		t.Fatalf("stream = %v, want the credited recv after the close", tr)
	}
	if meta.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the select send only)", meta.Dropped)
	}
	if meta.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 — the credit must unblock without a wait", meta.Timeouts)
	}
	if err := trace.ValidateExt(tr, extFromMeta(meta)); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestZeroReceiveWaitsForDrain: two logged sends and a logged close, then
// the three receives that really drained the channel logged with the
// zero-value receive first. It must wait for both value receives, log
// last and take no send; had it taken one, the value receive that really
// got that send could never be justified and would time out and drop.
func TestZeroReceiveWaitsForDrain(t *testing.T) {
	path := resetForTest(t)
	t.Setenv(EnvChanWait, "5s")
	g := Bind()
	ch := make(chan int, 2)
	Send(g, "ch", ch, 1)
	Send(g, "ch", ch, 2)
	CloseChan(g, "ch", ch)
	for _, want := range []bool{true, true, false} {
		if _, ok := <-ch; ok != want {
			t.Fatalf("real receive ok = %v, want %v", ok, want)
		}
	}
	cs := chanFor(ch, "ch")

	zero := make(chan int32)
	go Spawn(Fork(g), func() {
		zg := Bind()
		cs.recvDone(zg, recvZero)
		zero <- zg.tid
	})
	// Log the value receives only once the zero receive is waiting or,
	// were it not to wait, logged: 2 sends, the close, the fork, its recv.
	waiting := func() bool {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for ; n == len(buf); n = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		return bytes.Contains(buf[:n], []byte("(*chanState).await"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !waiting() && loggedEvents() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("the zero-value receive neither waited nor was logged")
		}
		runtime.Gosched()
	}
	cs.recvDone(g, recvValue)
	cs.recvDone(g, recvValue)
	var ztid int32
	select {
	case ztid = <-zero:
	case <-time.After(10 * time.Second):
		t.Fatal("the zero-value receive was never logged")
	}
	Shutdown()

	tr := decodeTrace(t, path)
	meta := loadMeta(t, path)
	if err := trace.ValidateExt(tr, extFromMeta(meta)); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if meta.Dropped != 0 || meta.Timeouts != 0 {
		t.Errorf("dropped %d, timeouts %d; want none", meta.Dropped, meta.Timeouts)
	}
	var recvs []int32
	for _, op := range tr {
		if op.Kind == trace.ChanRecv {
			recvs = append(recvs, int32(op.T))
		}
	}
	if len(recvs) != 3 || recvs[2] != ztid {
		t.Errorf("receives logged by threads %v, want 3 with the zero receive's thread %d last", recvs, ztid)
	}
}

// TestSelectWrappers drives the after-the-fact select logging path.
func TestSelectWrappers(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	ch := make(chan int, 1)

	// A select-chosen send, then a select-chosen receive of it.
	select {
	case ch <- 1:
		SendSel(g, "ch", ch)
	}
	select {
	case v, ok := <-ch:
		RecvSelOK(g, "ch", ch, ok)
		if v != 1 || !ok {
			t.Fatal("select recv")
		}
	}
	CloseChan(g, "ch", ch)
	// A select send racing a logged close is dropped, not emitted: forge
	// the situation by calling the wrapper directly post-close.
	SendSel(g, "ch", ch)
	Shutdown()

	tr := decodeTrace(t, path)
	meta := loadMeta(t, path)
	want := []trace.Kind{trace.ChanSend, trace.ChanRecv, trace.ChanClose}
	if len(tr) != len(want) {
		t.Fatalf("ops = %v", tr)
	}
	for i, k := range want {
		if tr[i].Kind != k {
			t.Errorf("op %d = %v, want %v", i, tr[i], k)
		}
	}
	if meta.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the post-close select send)", meta.Dropped)
	}
	if err := trace.ValidateExt(tr, extFromMeta(meta)); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// cell is an atomic location that notes the shim's event count whenever
// an operation runs on it, so a test can tell whether a wrapper logged
// before or after the operation. Its methods have atomic.Int32's shapes,
// And and Or included (atomic.Int32 gains those only in go1.23).
type cell struct {
	v  int32
	at uint64
}

func loggedEvents() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.events
}

func (c *cell) note()              { c.at = loggedEvents() }
func (c *cell) Load() int32        { c.note(); return atomic.LoadInt32(&c.v) }
func (c *cell) Store(v int32)      { c.note(); atomic.StoreInt32(&c.v, v) }
func (c *cell) Add(d int32) int32  { c.note(); return atomic.AddInt32(&c.v, d) }
func (c *cell) And(m int32) int32  { c.note(); old := c.v; c.v &= m; return old }
func (c *cell) Or(m int32) int32   { c.note(); old := c.v; c.v |= m; return old }
func (c *cell) Swap(v int32) int32 { c.note(); return atomic.SwapInt32(&c.v, v) }
func (c *cell) CompareAndSwap(old, new int32) bool {
	c.note()
	return atomic.CompareAndSwapInt32(&c.v, old, new)
}

// TestAtomicShapes drives each sync/atomic wrapper on a fresh cell: it
// must perform the operation, return its result and log one record of
// its shape's kind — a load after the operation, every other shape
// before it. An access inside an argument is logged before the atomic
// record.
func TestAtomicShapes(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	cases := []struct {
		name    string
		kind    trace.Kind
		from    int32
		do      func(c *cell) int32
		ret, to int32
	}{
		{"ALoad", trace.AtomicLoad, 5, func(c *cell) int32 {
			return ALoad(g, "c", &c.v, func(p *int32) int32 { c.note(); return atomic.LoadInt32(p) })
		}, 5, 5},
		{"AStore", trace.AtomicStore, 0, func(c *cell) int32 {
			AStore(g, "c", &c.v, 7, func(p *int32, v int32) { c.note(); atomic.StoreInt32(p, v) })
			return 0
		}, 0, 7},
		{"ARMW", trace.AtomicRMW, 4, func(c *cell) int32 {
			return ARMW(g, "c", &c.v, 3, func(p *int32, d int32) int32 { c.note(); return atomic.AddInt32(p, d) })
		}, 7, 7},
		{"ACAS", trace.AtomicRMW, 4, func(c *cell) int32 {
			return b2i(ACAS(g, "c", &c.v, 4, 9, func(p *int32, old, new int32) bool {
				c.note()
				return atomic.CompareAndSwapInt32(p, old, new)
			}))
		}, 1, 9},
		{"TLoad", trace.AtomicLoad, 5, func(c *cell) int32 { return TLoad(g, "c", c) }, 5, 5},
		{"TStore", trace.AtomicStore, 0, func(c *cell) int32 { TStore(g, "c", c, 7); return 0 }, 0, 7},
		{"TAdd", trace.AtomicRMW, 4, func(c *cell) int32 { return TAdd(g, "c", c, 3) }, 7, 7},
		{"TAnd", trace.AtomicRMW, 6, func(c *cell) int32 { return TAnd(g, "c", c, 3) }, 6, 2},
		{"TOr", trace.AtomicRMW, 4, func(c *cell) int32 { return TOr(g, "c", c, 1) }, 4, 5},
		{"TSwap", trace.AtomicRMW, 1, func(c *cell) int32 { return TSwap(g, "c", c, 8) }, 1, 8},
		{"TCAS", trace.AtomicRMW, 4, func(c *cell) int32 { return b2i(TCAS(g, "c", c, 4, 9)) }, 1, 9},
	}
	var want []trace.Kind
	for _, tc := range cases {
		c := &cell{v: tc.from}
		before := loggedEvents()
		if ret := tc.do(c); ret != tc.ret || c.v != tc.to {
			t.Errorf("%s: returned %d leaving %d, want %d leaving %d", tc.name, ret, c.v, tc.ret, tc.to)
		}
		at := before + 1 // logged before the operation
		if tc.kind == trace.AtomicLoad {
			at = before
		}
		if c.at != at {
			t.Errorf("%s: the operation ran after %d records, want %d", tc.name, c.at-before, at-before)
		}
		want = append(want, tc.kind)
	}
	var c cell
	var d int32
	ARMW(g, "c", &c.v, Rd(g, "d", &d), atomic.AddInt32)
	TStore(g, "c", &c, Rd(g, "d", &d))
	want = append(want, trace.Read, trace.AtomicRMW, trace.Read, trace.AtomicStore)
	Shutdown()

	tr := decodeTrace(t, path)
	if len(tr) != len(want) {
		t.Fatalf("decoded %d ops, want %d: %v", len(tr), len(want), tr)
	}
	for i, k := range want {
		if tr[i].Kind != k || tr[i].T != 0 {
			t.Errorf("op %d = %v, want %v by thread 0", i, tr[i], k)
		}
	}
}
