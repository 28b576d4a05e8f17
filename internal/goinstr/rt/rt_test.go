package rt

// The shim encodes its capture itself, through trace.AppendRecord straight
// into its own buffer, so these tests decode its output with the real
// trace.NewBinaryDecoder, and feed captured
// streams to the rule-6 validator to prove the log-ordering gadget emits
// only feasible traces. Run with -race: the gadget's own locking is part
// of the contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// resetForTest points EnvTrace at a fresh capture file, which the next
// event opens, and clears every id table and counter, so each test sees
// deterministic ids with the test's own goroutine as thread 0.
func resetForTest(t testing.TB) (tracePath string) {
	t.Helper()
	tracePath = filepath.Join(t.TempDir(), "out.vft")
	t.Setenv(EnvTrace, tracePath)

	st.mu.Lock()
	defer st.mu.Unlock()
	st.started = false
	st.active = false
	st.file, st.buf, st.werr = nil, nil, nil
	st.nextTid = 1
	st.checkErr = nil
	st.events = 0
	st.dropped = 0
	st.timeouts = 0
	st.gs.Store(goid(), &G{tid: 0})
	return tracePath
}

func decodeTrace(t testing.TB, path string) trace.Trace {
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

func loadMeta(t testing.TB, path string) *Meta {
	t.Helper()
	b, err := os.ReadFile(MetaPath(path))
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
	return &trace.Extensions{ChanCapacity: m.Chans}
}

// TestSequentialEventsDecode drives every basic wrapper on one goroutine
// and checks the decoded stream op by op.
func TestSequentialEventsDecode(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	if g.tid != 0 {
		t.Fatalf("test goroutine bound to tid %d, want 0", g.tid)
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
	MutexLock(g, &mu)
	MutexUnlock(g, &mu)
	if !MutexTryLock(g, &mu) {
		t.Fatal("TryLock on free mutex failed")
	}
	MutexUnlock(g, &mu)
	var a32 int32
	AStore(g, &a32, 5, atomic.StoreInt32)
	if ALoad(g, &a32, atomic.LoadInt32) != 5 {
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
	if len(meta.Reports) != 0 || len(meta.Vars) != 0 {
		t.Errorf("reports %v naming %v, want none: one goroutine cannot race", meta.Reports, meta.Vars)
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
	WGAdd(g, &wg, children)
	for i := 0; i < children; i++ {
		go Spawn(Fork(g), func() {
			cg := Bind()
			for j := 0; j < 25; j++ {
				MutexLock(cg, &mu)
				(*RdWr(cg, "counter", &counter))++
				MutexUnlock(cg, &mu)
			}
			WGDone(cg, &wg)
		})
	}
	WGWait(g, &wg)
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
				Send(cg, buf, j)
			}
			wg.Done()
		})
	}
	go Spawn(Fork(g), func() {
		cg := Bind()
		for j := 0; j < perSender; j++ {
			Send(cg, rdv, j)
		}
		wg.Done()
	})

	sum := 0
	for j := 0; j < senders*perSender; j++ {
		sum += Recv(g, buf)
	}
	for j := 0; j < perSender; j++ {
		v, ok := Recv2(g, rdv)
		if !ok {
			t.Fatal("rendezvous channel closed early")
		}
		sum += v
	}
	wg.Wait()
	CloseChan(g, buf)
	if _, ok := Recv2(g, buf); ok {
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
	// The capacity map holds the buffered channel and leaves out the
	// unbuffered one.
	if len(meta.Chans) != 1 {
		t.Errorf("channel capacities in meta = %v, want the cap-2 channel alone", meta.Chans)
	}
	for _, c := range meta.Chans {
		if c != 2 {
			t.Errorf("channel capacities in meta = %v, want the cap-2 channel alone", meta.Chans)
		}
	}
}

// TestWaitGroupOrdering asserts the Done-before-Wait log discipline: the
// parent's post-Wait load is preceded in the stream by every child Done.
func TestWaitGroupOrdering(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	var wg sync.WaitGroup
	WGAdd(g, &wg, 2)
	for i := 0; i < 2; i++ {
		go Spawn(Fork(g), func() {
			WGDone(Bind(), &wg)
		})
	}
	WGWait(g, &wg)
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
	WGAdd(g, &wg, 1)
	if n := loggedEvents() - before; n != 0 {
		t.Errorf("WGAdd(+1) logged %d records, want none", n)
	}
	WGAdd(g, &wg, -1)
	WGAdd(g, &wg, 1)
	WGDone(g, &wg)
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
			OnceDo(cg, &once, func() { executor = cg.tid })
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
// still performs its underlying operation and creates no file.
func TestDisabledPassThrough(t *testing.T) {
	path := resetForTest(t)
	t.Setenv(EnvTrace, "")

	g := Bind()
	var x int
	*Wr(g, "x", &x) = 9
	if Rd(g, "x", &x) != 9 {
		t.Fatal("pass-through Rd/Wr")
	}
	ch := make(chan int, 1)
	Send(g, ch, 3)
	if Recv(g, ch) != 3 {
		t.Fatal("pass-through Send/Recv")
	}
	CloseChan(g, ch)
	if _, ok := Recv2(g, ch); ok {
		t.Fatal("pass-through Recv2 after close")
	}
	var once sync.Once
	ran := false
	OnceDo(g, &once, func() { ran = true })
	if !ran {
		t.Fatal("pass-through OnceDo")
	}

	Shutdown()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("capture disabled, yet %s: %v", path, err)
	}
}

// TestCaptureOpensAtFirstEvent: the trace file does not exist until the
// first event, which creates it, and a capture that logs nothing still
// ends as a header-only trace with a sidecar.
func TestCaptureOpensAtFirstEvent(t *testing.T) {
	path := resetForTest(t)
	g := Bind()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("before the first event: %s: %v", path, err)
	}
	var x int
	*Wr(g, "x", &x) = 1
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("after the first event: %v", err)
	}
	Shutdown()
	if tr := decodeTrace(t, path); len(tr) != 1 || tr[0].Kind != trace.Write {
		t.Fatalf("trace = %v, want one write", tr)
	}

	path = resetForTest(t)
	Shutdown()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr := trace.AppendHeader(nil); !bytes.Equal(raw, hdr) {
		t.Fatalf("a capture with no event holds %q, want the header %q alone", raw, hdr)
	}
	if m := loadMeta(t, path); m.Events != 0 {
		t.Fatalf("sidecar counts %d events, want 0", m.Events)
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
		done <- Recv(cg, ch)
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
		done <- Recv(cg, ch)
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
	CloseChan(g, ch) // close logged before the select send's record
	SendSel(g, ch)   // too late: dropped, credits the receiver

	done := make(chan struct{})
	go func() {
		defer close(done)
		cg := Bind()
		if v, ok := Recv2(cg, ch); v != 1 || !ok {
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
	Send(g, ch, 1)
	Send(g, ch, 2)
	CloseChan(g, ch)
	for _, want := range []bool{true, true, false} {
		if _, ok := <-ch; ok != want {
			t.Fatalf("real receive ok = %v, want %v", ok, want)
		}
	}
	cs := chanFor(ch)

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
		SendSel(g, ch)
	}
	select {
	case v, ok := <-ch:
		RecvSelOK(g, ch, ok)
		if v != 1 || !ok {
			t.Fatal("select recv")
		}
	}
	CloseChan(g, ch)
	// A select send racing a logged close is dropped, not emitted: forge
	// the situation by calling the wrapper directly post-close.
	SendSel(g, ch)
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
			return ALoad(g, &c.v, func(p *int32) int32 { c.note(); return atomic.LoadInt32(p) })
		}, 5, 5},
		{"AStore", trace.AtomicStore, 0, func(c *cell) int32 {
			AStore(g, &c.v, 7, func(p *int32, v int32) { c.note(); atomic.StoreInt32(p, v) })
			return 0
		}, 0, 7},
		{"ARMW", trace.AtomicRMW, 4, func(c *cell) int32 {
			return ARMW(g, &c.v, 3, func(p *int32, d int32) int32 { c.note(); return atomic.AddInt32(p, d) })
		}, 7, 7},
		{"ACAS", trace.AtomicRMW, 4, func(c *cell) int32 {
			return b2i(ACAS(g, &c.v, 4, 9, func(p *int32, old, new int32) bool {
				c.note()
				return atomic.CompareAndSwapInt32(p, old, new)
			}))
		}, 1, 9},
		{"TLoad", trace.AtomicLoad, 5, func(c *cell) int32 { return TLoad(g, c) }, 5, 5},
		{"TStore", trace.AtomicStore, 0, func(c *cell) int32 { TStore(g, c, 7); return 0 }, 0, 7},
		{"TAdd", trace.AtomicRMW, 4, func(c *cell) int32 { return TAdd(g, c, 3) }, 7, 7},
		{"TAnd", trace.AtomicRMW, 6, func(c *cell) int32 { return TAnd(g, c, 3) }, 6, 2},
		{"TOr", trace.AtomicRMW, 4, func(c *cell) int32 { return TOr(g, c, 1) }, 4, 5},
		{"TSwap", trace.AtomicRMW, 1, func(c *cell) int32 { return TSwap(g, c, 8) }, 1, 8},
		{"TCAS", trace.AtomicRMW, 4, func(c *cell) int32 { return b2i(TCAS(g, c, 4, 9)) }, 1, 9},
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
	ARMW(g, &c.v, Rd(g, "d", &d), atomic.AddInt32)
	TStore(g, &c, Rd(g, "d", &d))
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
			first := goid()
			if first <= 0 {
				t.Errorf("goroutine %d: goid() = %d, want positive", slot, first)
				return
			}
			for j := 0; j < reads; j++ {
				if got := goid(); got != first {
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
	if got := goid(); got != want {
		t.Fatalf("goid() = %d, full-dump parse = %d", got, want)
	}
}

// BenchmarkID prices the goroutine-id capture: one small runtime.Stack
// call plus the header parse, which Bind pays once per instrumented
// function call.
func BenchmarkID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if goid() <= 0 {
			b.Fatal("bad id")
		}
	}
}
