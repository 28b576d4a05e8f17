// Package rt is the runtime shim linked into programs instrumented by the
// vft-go front-end (internal/goinstr). Rewritten source calls into it for
// every shared memory access and synchronization operation; the shim maps
// goroutines, variables, locks, channels, atomics and onces onto the dense
// id spaces of the trace language, streams a binary VFTb\x02 trace (trace
// format v2) and checks it as it goes.
//
// The check runs inside the program, as §7's RoadRunner architecture has
// it: every record is logged under the shim's one mutex, st.mu, and under
// that same mutex, in capture order, it is stepped through the kernel's
// Feed — a trace.Validator, a parity trace.Lowerer and a kernel.Machine
// keeping one report per variable — a batch of records at a time, by
// whichever goroutine logs the record that fills the batch. That is
// exactly the check the offline path (internal/parcheck, through
// goinstr.Check) runs on the capture, so the reports are the same.
// Shutdown steps the last batch and writes the reports, or the validator's
// positioned error, into the meta sidecar, from which vft-go renders the
// verdict without a second pass. It names only the variables the reports
// name, so its size follows the reports, not the variables; no other
// traced object has a name. The capture itself is written all the
// same, each record encoded in place into the shim's own buffer, for
// vft-go's -trace and -server and for re-checking.
//
// The front-end copies the shim's source into the shadow module it
// generates, where no module requirements exist, so the shim imports the
// standard library and, of this repository, only the kernel and the
// packages it imports (epoch, vc, spec, trace), which travel with it:
// internal.ShimSources lists every file. Records are encoded by the trace
// package's own AppendRecord, straight into the shim's buffer.
//
// The shim is inert until its first event. Every tool of this repository
// links it (through internal/goinstr), so init only registers the main
// goroutine as thread 0; the capture named by [EnvTrace] is opened by the
// first emitted event, the first check of whether capture is on, or
// [Shutdown], whichever comes first.
//
// # Event ordering
//
// The trace is a single serialized stream, but the program executes
// concurrently, so the shim must emit events in an order the trace
// validator considers feasible and the happens-before lowering interprets
// correctly. The rules, mirrored from the §2/rule-6 feasibility
// constraints:
//
//   - fork(t,u) is emitted in the parent before the child goroutine is
//     spawned, so no child event can precede it.
//   - acquire is logged after Lock returns; release is logged before
//     Unlock is called. The holder therefore always logs its release
//     before the next holder can log its acquire.
//   - an atomic is logged by its shape, whatever its operand type: a
//     load (acquire-like) after the operation; a store, a read-modify-write
//     (Add, And, Or, Swap) and a CompareAndSwap (release-like) before it.
//     A reader that observed a value then logs after the writer logged, so
//     the pseudo-lock chain the lowering builds points the right way. The
//     operation's arguments are the wrapper's own, so an access inside
//     them is logged before the atomic record.
//   - a channel send is logged at initiation, before the real send, and
//     the sender then waits (log-side only) until the log-level channel
//     state shows its send completed before logging anything else — the
//     validator's blocked-sender rule. A receive is logged at completion
//     but only once the log-level state can justify it: a logged send to
//     match (value receives) or a logged close (zero-value receives).
//     This per-channel gadget never delays the program's real channel
//     operations, only the order log records enter the stream.
//
// When every peer of a channel is instrumented, the condition each
// log-side waiter needs is established by a logger that has already
// completed its real operation, so waits are transient (a scheduling
// delay). That holds for a zero-value receive only because it waits for
// the close and for every logged send to be matched, and consumes none:
// the runtime hands out the zero value only once the buffer is drained,
// so the receivers of those sends have completed and their records are
// coming. Were it to take a logged send instead, the value receive that
// really got it could never be justified. But a channel fed or drained by uninstrumented code —
// time.After, ticker.C, ctx.Done(), signal.Notify, all reachable through
// the stdlib imports Load permits — never produces the log records a
// waiter needs, and an unconditional wait would hang the real goroutine
// forever. Every log-side wait therefore carries a timeout
// ([EnvChanWait], default 250ms): when it fires the channel is marked
// lossy, a receive that still cannot be justified is dropped (counted in
// the meta sidecar) instead of emitted infeasibly or blocked on, and
// later waits on that channel are skipped entirely, so only the first
// operation on an uninstrumented channel pays the timeout.
//
// Documented approximations remain: when several senders (or receivers)
// race on one channel, log order may pair the k-th logged send with a
// different real receive than the runtime did — the happens-before edges
// stay between operations that really completed, but can be attributed
// to the wrong peer. Select communication is logged after completion
// without initiation records, so a send chosen by select against a
// racing close is dropped (counted) rather than emitted infeasibly; its
// matched receive is credited so the receiving goroutine is not blocked,
// and is justified by the logged close instead — a fabricated close→recv
// edge that can only hide races, never invent one. And on a lossy
// channel, a send that was already logged when its settle wait timed out
// can leave the stream locally infeasible past that point; the timeout
// counter in the sidecar records that the capture degraded.
//
// # Id interning and pinning
//
// The id tables key on the traced object's pointer, not a uintptr
// snapshot. That forces every traced object to escape to the heap (stack
// slots move when stacks grow, which would split one variable across two
// ids) and keeps it alive for the life of the process, so a freed
// object's address can never be reused by a distinct variable aliasing
// the old id and its name. Traced objects are therefore never collected —
// an accepted cost for a tracing shim, proportional to the id tables that
// grow alongside them.
package rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// G is one goroutine's identity in the trace: its dense thread id. The
// rewriter binds a *G once per instrumented function body (__vftg :=
// __vft.Bind()) so the goroutine-id lookup is paid per call, not per
// access.
type G struct {
	tid int32
}

// state is the process-wide shim state. One per process; everything hangs
// off the package-level singleton so the generated call sites stay short.
type state struct {
	mu      sync.Mutex // guards the capture, the check, id tables, counters
	started bool       // the capture was opened, or found off (see start)
	active  bool       // events are written; false when off or shut down
	file    *os.File
	buf     []byte // records not yet written to file, flushed at bufSize
	werr    error  // the first write error; the capture stops there
	nextTid int32

	// The interning tables key on real pointers so the GC pins every
	// traced object: stable addresses, stable ids (see package comment).
	vars     idTable  // rd/wr X space
	atomics  idTable  // aload/astore/armw X space
	locks    idTable  // acq/rel M space
	onces    idTable  // once M space
	varNames []string // each variable's site, by id: reports name it
	chanIDs  map[unsafe.Pointer]*chanState

	// The inline check: pending holds the records logged since the feed
	// last stepped, ext the channel capacities chanFor registers, which
	// the feed's validator and lowerer read at each channel's first
	// record and the sidecar carries, and checkErr the feed's first error,
	// after which nothing more is checked.
	pending  []trace.Op
	ext      trace.Extensions
	feed     *kernel.Feed
	machine  kernel.Machine
	checkErr error

	events   uint64
	dropped  uint64 // events dropped to keep the stream feasible
	timeouts uint64 // log-side waits that hit EnvChanWait (lossy channels)

	// gs maps a goroutine id (goid) to its *G. Only the goroutine an
	// entry belongs to stores or deletes it, so no entry is ever contended.
	gs sync.Map
}

// chanState is one channel's log-ordering gadget. mu serializes only the
// *logging* of this channel's operations; the real channel operations
// are never delayed by it. waitc is the broadcast primitive: it is closed
// and replaced on every log-state change (kick), so waiters can select on
// it against a timer — sync.Cond has no timed wait.
type chanState struct {
	id  int32
	cap int

	mu      sync.Mutex
	waitc   chan struct{}
	sends   int  // logged send initiations
	recvs   int  // logged value receives
	credits int  // dropped select sends whose matched receive may proceed
	closed  bool // a close was logged
	lossy   bool // a wait timed out: peers are uninstrumented, stop gating
}

var st = &state{}

// idTable interns one class of traced object: a map from the object's
// pointer to its dense id, in first-touch order, with a direct-mapped
// cache of recent pointers in front of it. The tables start empty and
// are sized by start, when capture turns on.
type idTable struct {
	ids   map[unsafe.Pointer]int32
	cache []idCacheEntry // len a power of two
}

type idCacheEntry struct {
	p  unsafe.Pointer
	id int32
}

func newIDTable(cacheSize int) idTable {
	return idTable{ids: map[unsafe.Pointer]int32{}, cache: make([]idCacheEntry, cacheSize)}
}

// id interns an object. The table retains the pointer, so the object
// stays alive and its id can never alias another object's storage. The
// caller holds st.mu.
func (tb *idTable) id(p unsafe.Pointer) int32 {
	h := uintptr(p) >> 3
	e := &tb.cache[(h^h>>10)&uintptr(len(tb.cache)-1)]
	if e.p == p && p != nil { // an empty slot holds nil; a nil map is interned too
		return e.id
	}
	id, ok := tb.ids[p]
	if !ok {
		id = int32(len(tb.ids))
		tb.ids[p] = id
	}
	*e = idCacheEntry{p: p, id: id}
	return id
}

// varID interns a variable; its first touch records site as its name.
// The caller holds st.mu.
func (s *state) varID(p unsafe.Pointer, site string) int32 {
	id := s.vars.id(p)
	if int(id) == len(s.varNames) {
		s.varNames = append(s.varNames, site)
	}
	return id
}

const (
	// EnvTrace names the environment variable the shim reads at its first
	// event: the trace output path. Empty disables capture — the program
	// runs with the shim pass-through. The meta sidecar goes to
	// MetaPath(trace).
	EnvTrace = "VFT_TRACE"

	// EnvChanWait bounds every log-side channel wait (a time.ParseDuration
	// string). Waits only ever span the scheduling delay of a logger whose
	// real operation already completed, so hitting the bound means the
	// peer is uninstrumented; the channel then goes lossy (see the package
	// comment). Zero or unset means defaultChanWait.
	EnvChanWait = "VFT_CHAN_WAIT"
)

const defaultChanWait = 250 * time.Millisecond

// chanWaitTimeout reads EnvChanWait; called only on the slow path, when a
// log-side wait is actually about to block.
func chanWaitTimeout() time.Duration {
	if s := os.Getenv(EnvChanWait); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			return d
		}
	}
	return defaultChanWait
}

// MetaPath is where the shim writes the meta sidecar of the trace at
// tracePath.
func MetaPath(tracePath string) string { return tracePath + ".meta.json" }

func init() {
	st.nextTid = 1
	st.gs.Store(goid(), &G{tid: 0}) // the main goroutine is thread 0
}

// bufSize is the capture buffer: records collect in it and are written
// to the file a buffer at a time.
const bufSize = 1 << 16

// batchSize is how many records the inline check takes at a time.
const batchSize = 512

// start opens the capture EnvTrace names, writes the stream header and
// readies the id tables and the inline check, or leaves capture off —
// every wrapper a pass-through — when it is unset or cannot be created.
// It runs once, at the shim's first event rather than in init, so a
// program that links the shim but logs nothing never touches the file or
// the tables. The caller holds st.mu.
func (s *state) start() {
	s.started = true
	path := os.Getenv(EnvTrace)
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vft-rt: cannot open trace %q: %v (capture disabled)\n", path, err)
		return
	}
	s.file = f
	s.buf = trace.AppendHeader(make([]byte, 0, bufSize))
	s.vars, s.varNames = newIDTable(1<<12), nil
	s.atomics, s.locks, s.onces = newIDTable(1<<8), newIDTable(1<<8), newIDTable(1<<6)
	s.chanIDs = map[unsafe.Pointer]*chanState{}
	s.ext = trace.Extensions{ChanCapacity: map[trace.Lock]int{}}
	s.pending = make([]trace.Op, 0, batchSize)
	s.machine.Reset(1)
	s.feed = kernel.NewFeed(&s.ext, epoch.MaxTid, epoch.MaxClock, nil, &s.machine)
	s.active = true
}

// capturingLocked reports whether events are written, starting the
// capture on the first call. The caller holds st.mu.
func (s *state) capturingLocked() bool {
	if !s.started {
		s.start()
	}
	return s.active
}

// Bind returns the calling goroutine's trace identity, creating one if the
// goroutine was not spawned through an instrumented go statement (a
// goroutine started by an uninstrumented library, say). Such foreign
// goroutines are adopted with a fork from the main thread — a conservative
// happens-before edge that keeps the trace feasible.
//
// Only the calling goroutine ever stores its own entry, so a load that
// misses can store without a check-and-set.
func Bind() *G {
	id := goid()
	if g, ok := st.gs.Load(id); ok {
		return g.(*G)
	}
	st.mu.Lock()
	g := &G{tid: st.nextTid}
	st.nextTid++
	if st.capturingLocked() {
		st.emitLocked(trace.Fork, 0, g.tid)
	}
	st.mu.Unlock()
	st.gs.Store(id, g)
	return g
}

// Fork allocates a child thread id and emits fork(parent, child); it runs
// in the parent, before the go statement spawns the child, so the fork
// event precedes every child event in the stream. Pair with Spawn.
func Fork(g *G) int32 {
	st.mu.Lock()
	u := st.nextTid
	st.nextTid++
	if st.capturingLocked() {
		st.emitLocked(trace.Fork, g.tid, u)
	}
	st.mu.Unlock()
	return u
}

// Spawn runs fn as the body of the goroutine forked as thread u: it binds
// the current goroutine to u for the duration of fn. The rewriter emits
// `go __vft.Spawn(__vft.Fork(__vftg), func() { ... })`.
func Spawn(u int32, fn func()) {
	id := goid()
	st.gs.Store(id, &G{tid: u})
	defer st.gs.Delete(id)
	fn()
}

// emitLocked logs one record: it appends it to the capture and to the
// inline check's batch, which the check steps through once it is full —
// every record in capture order, under st.mu, a batch later. The caller
// holds st.mu and has seen capturingLocked report true.
func (s *state) emitLocked(kind trace.Kind, t, arg int32) {
	s.events++
	if len(s.buf) > bufSize-trace.MaxRecordLen {
		s.flushLocked()
	}
	s.buf = trace.AppendRecord(s.buf, kind, t, arg)

	k := len(s.pending)
	s.pending = s.pending[:k+1]
	s.pending[k].SetRecord(kind, t, arg)
	if k+1 == batchSize {
		s.checkLocked()
	}
}

// checkLocked steps the pending records through the inline check. The
// caller holds st.mu.
func (s *state) checkLocked() {
	if s.checkErr == nil {
		s.checkErr = s.feed.Check(s.pending)
	}
	s.pending = s.pending[:0]
}

// flushLocked writes the buffered records to the capture file. After a
// write error the capture is incomplete: it keeps the error for Shutdown
// to report and writes nothing more. The caller holds st.mu.
func (s *state) flushLocked() {
	if s.werr == nil {
		_, s.werr = s.file.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// emit logs one record if capture is on.
func emit(kind trace.Kind, t, arg int32) {
	st.mu.Lock()
	if st.capturingLocked() {
		st.emitLocked(kind, t, arg)
	}
	st.mu.Unlock()
}

// emitIn interns addr in tb and logs one record naming it, if capture is
// on. emitVar and emitAtomic are the slow halves of the generic wrappers
// in wrappers.go.
func emitIn(tb *idTable, kind trace.Kind, g *G, addr unsafe.Pointer) {
	st.mu.Lock()
	if st.capturingLocked() {
		st.emitLocked(kind, g.tid, tb.id(addr))
	}
	st.mu.Unlock()
}

// emitVar is emitIn for a variable: its first touch names it site.
func emitVar(kind trace.Kind, g *G, site string, addr unsafe.Pointer) {
	st.mu.Lock()
	if st.capturingLocked() {
		st.emitLocked(kind, g.tid, st.varID(addr, site))
	}
	st.mu.Unlock()
}

func emitAtomic(g *G, kind trace.Kind, addr unsafe.Pointer) { emitIn(&st.atomics, kind, g, addr) }

// Mutexes: acquire logs after Lock returns, release logs before Unlock is
// called, so the stream always shows rel before the next acq.

// MutexLock locks m and logs the acquire.
func MutexLock(g *G, m *sync.Mutex) {
	m.Lock()
	emitIn(&st.locks, trace.Acquire, g, unsafe.Pointer(m))
}

// MutexUnlock logs the release and unlocks m.
func MutexUnlock(g *G, m *sync.Mutex) {
	emitIn(&st.locks, trace.Release, g, unsafe.Pointer(m))
	m.Unlock()
}

// MutexTryLock forwards TryLock, logging the acquire only on success.
func MutexTryLock(g *G, m *sync.Mutex) bool {
	if !m.TryLock() {
		return false
	}
	emitIn(&st.locks, trace.Acquire, g, unsafe.Pointer(m))
	return true
}

// RWMutexes are modeled as atomic RMWs on a per-mutex pseudo-location:
// every operation totally orders with every other through the location's
// pseudo-lock chain, which over-synchronizes (two read-critical sections
// become ordered) but stays feasible — two concurrent RLock holders could
// not both log an acquire of one trace lock. Acquire-like ops log after
// the real operation, release-like ops before, as for atomics.

func RWLock(g *G, m *sync.RWMutex) {
	m.Lock()
	emitAtomic(g, trace.AtomicRMW, unsafe.Pointer(m))
}

func RWRLock(g *G, m *sync.RWMutex) {
	m.RLock()
	emitAtomic(g, trace.AtomicRMW, unsafe.Pointer(m))
}

func RWUnlock(g *G, m *sync.RWMutex) {
	emitAtomic(g, trace.AtomicRMW, unsafe.Pointer(m))
	m.Unlock()
}

func RWRUnlock(g *G, m *sync.RWMutex) {
	emitAtomic(g, trace.AtomicRMW, unsafe.Pointer(m))
	m.RUnlock()
}

// WaitGroups: Done is release-like (logged before the real operation),
// Wait is acquire-like (logged after it returns). Every logged Done
// therefore precedes the Wait that observed it, giving the Done → Wait
// happens-before edge through the pseudo-location's chain. An Add with a
// negative delta is a Done and logs the same record; a positive Add
// releases nothing (sync.WaitGroup.Add calls race.ReleaseMerge only when
// delta < 0) and logs nothing.

func WGAdd(g *G, wg *sync.WaitGroup, n int) {
	if n < 0 {
		emitAtomic(g, trace.AtomicRMW, unsafe.Pointer(wg))
	}
	wg.Add(n)
}

func WGDone(g *G, wg *sync.WaitGroup) {
	emitAtomic(g, trace.AtomicRMW, unsafe.Pointer(wg))
	wg.Done()
}

func WGWait(g *G, wg *sync.WaitGroup) {
	wg.Wait()
	emitAtomic(g, trace.AtomicLoad, unsafe.Pointer(wg))
}

// OnceDo forwards once.Do. The executor logs its once event inside f —
// while every other Do on the same Once is still blocked — so the first
// once record in the stream is always the executor's, which is how the
// lowering picks the publishing thread.
func OnceDo(g *G, o *sync.Once, f func()) {
	ran := false
	o.Do(func() {
		f()
		emitIn(&st.onces, trace.OnceDo, g, unsafe.Pointer(o))
		ran = true
	})
	if !ran {
		emitIn(&st.onces, trace.OnceDo, g, unsafe.Pointer(o))
	}
}

// chanFor interns a channel (by its runtime header pointer, via reflect)
// and registers its capacity with the inline check and the meta sidecar.
// The wrappers call it only while capture is on.
func chanFor(c any) *chanState {
	v := reflect.ValueOf(c)
	addr := v.UnsafePointer()
	st.mu.Lock()
	cs, ok := st.chanIDs[addr]
	if !ok {
		cs = &chanState{id: int32(len(st.chanIDs)), cap: v.Cap(), waitc: make(chan struct{})}
		st.chanIDs[addr] = cs
		if cs.cap > 0 {
			st.ext.ChanCapacity[trace.Lock(cs.id)] = cs.cap
		}
	}
	st.mu.Unlock()
	return cs
}

// kick wakes every log-side waiter on this channel. Caller holds cs.mu.
func (cs *chanState) kick() {
	close(cs.waitc)
	cs.waitc = make(chan struct{})
}

// await blocks until cond holds or the channel wait timeout elapses,
// whichever comes first, and returns cond's final value. A timeout marks
// the channel lossy — its peers are presumed uninstrumented — so every
// later await on it returns without blocking. Caller holds cs.mu; it is
// released while blocked and held again on return.
func (cs *chanState) await(cond func() bool) bool {
	if cond() || cs.lossy {
		return cond()
	}
	deadline := time.Now().Add(chanWaitTimeout())
	for {
		ch := cs.waitc
		cs.mu.Unlock()
		var timedOut bool
		d := time.Until(deadline)
		if d <= 0 {
			timedOut = true
		} else {
			timer := time.NewTimer(d)
			select {
			case <-ch:
			case <-timer.C:
				timedOut = true
			}
			timer.Stop()
		}
		cs.mu.Lock()
		if cond() {
			return true
		}
		if cs.lossy {
			return false
		}
		if timedOut {
			cs.lossy = true
			st.mu.Lock()
			st.timeouts++
			st.mu.Unlock()
			cs.kick() // fellow waiters observe lossy and fall back too
			return false
		}
	}
}

// sendInit logs a send initiation. Called before the real send.
func (cs *chanState) sendInit(g *G) int {
	cs.mu.Lock()
	emit(trace.ChanSend, g.tid, cs.id)
	cs.sends++
	k := cs.sends
	cs.kick()
	cs.mu.Unlock()
	return k
}

// sendSettle blocks (log-side only) until the k-th logged send is
// complete at log level — until then the validator considers the sender
// blocked and it may not log another event. The matching real receive has
// already completed or will shortly, so its log record is coming — unless
// the receiver is uninstrumented, in which case the await times out and
// the sender proceeds (the stream may be locally infeasible past the
// already-emitted send; the timeout counter records the degradation).
func (cs *chanState) sendSettle(k int) {
	cs.mu.Lock()
	cs.await(func() bool { return k-cs.recvs <= cs.cap })
	cs.mu.Unlock()
}

// recvClass describes what a completed receive observed.
type recvClass int

const (
	recvValue   recvClass = iota // a sent value (ok = true)
	recvZero                     // the zero value of a closed channel (ok = false)
	recvUnknown                  // plain `<-ch`: the program cannot tell
)

// recvDone logs a completed receive once the log-level channel state can
// justify it: a logged unmatched send (or a credit from a dropped select
// send) for a value receive, a logged close with every logged send
// matched for a zero-value receive, which consumes no send. For
// recvUnknown it takes whichever becomes justifiable first. A receive
// that stays unjustifiable past the wait timeout — its producer is
// uninstrumented — is dropped and counted rather than blocked on or
// emitted infeasibly.
func (cs *chanState) recvDone(g *G, class recvClass) {
	cs.mu.Lock()
	justified := false
	switch class {
	case recvValue:
		justified = cs.await(func() bool { return cs.sends > cs.recvs || cs.credits > 0 })
	case recvZero:
		justified = cs.await(func() bool { return cs.closed && cs.sends <= cs.recvs })
	default:
		justified = cs.await(func() bool { return cs.sends > cs.recvs || cs.closed })
	}
	if !justified {
		st.mu.Lock()
		st.dropped++
		st.mu.Unlock()
		cs.mu.Unlock()
		return
	}
	if cs.sends > cs.recvs {
		cs.recvs++
	} else if class == recvValue {
		// Matched a dropped select send: consume the credit. The close
		// that forced the drop is logged, so the record is feasible as a
		// receive on a closed channel.
		cs.credits--
	}
	emit(trace.ChanRecv, g.tid, cs.id)
	cs.kick()
	cs.mu.Unlock()
}

// closeDone logs a completed close, waiting until no logged sender is
// blocked at log level (each such sender's matching receive has already
// really happened, so the receive records are coming — or never will, if
// the receiver is uninstrumented, in which case the await times out).
func (cs *chanState) closeDone(g *G) {
	cs.mu.Lock()
	cs.await(func() bool { return cs.sends-cs.recvs <= cs.cap })
	cs.closed = true
	emit(trace.ChanClose, g.tid, cs.id)
	cs.kick()
	cs.mu.Unlock()
}

// sendSelDone logs a select-chosen send after the fact. If a close was
// already logged the record would be infeasible; it is dropped and
// counted instead, and the matched receive is credited so the goroutine
// that really received the value is not blocked waiting for a send
// record that will never come (see the package comment).
func (cs *chanState) sendSelDone(g *G) {
	cs.mu.Lock()
	if cs.closed {
		cs.credits++
		st.mu.Lock()
		st.dropped++
		st.mu.Unlock()
		cs.kick() // wake the paired value receiver, if it is waiting
		cs.mu.Unlock()
		return
	}
	emit(trace.ChanSend, g.tid, cs.id)
	cs.sends++
	k := cs.sends
	cs.kick()
	cs.await(func() bool { return k-cs.recvs <= cs.cap })
	cs.mu.Unlock()
}

// Shutdown flushes the trace and writes the meta sidecar: the inline
// check's verdict (its reports, or the validator's positioned error), the
// name of each variable a report names, the buffered channels' capacities
// and the event counters. The rewriter defers it as the first statement
// of main, so it also runs when the program panics — but not when it
// calls os.Exit or dies of a fatal signal, which leaves no sidecar.
// Events emitted after Shutdown are neither written nor checked.
func Shutdown() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.capturingLocked() {
		return
	}
	st.active = false
	st.checkLocked()
	st.flushLocked() // even a program that logged nothing leaves the header
	err := st.werr
	if cerr := st.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vft-rt: writing trace: %v\n", err)
	}

	meta := Meta{
		Events:   st.events,
		Dropped:  st.dropped,
		Timeouts: st.timeouts,
		Vars:     map[trace.Var]string{},
		Chans:    st.ext.ChanCapacity,
		Reports:  st.reports(),
	}
	for _, r := range meta.Reports {
		meta.Vars[r.X] = st.varNames[r.X]
	}
	if st.checkErr != nil {
		meta.Error = st.checkErr.Error()
	}
	b, err := json.MarshalIndent(&meta, "", "  ")
	if err == nil {
		err = os.WriteFile(MetaPath(st.file.Name()), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vft-rt: writing meta sidecar: %v\n", err)
	}
}

// reports returns the inline check's reports on the trace's own thread
// ids: the machine numbers threads by their validator ordinal, as the
// offline check does before it maps its reports back. The caller holds
// st.mu.
func (s *state) reports() []kernel.Report {
	if s.checkErr != nil {
		return nil
	}
	reports := s.machine.Reports()
	tids := s.feed.V.Threads()
	for i := range reports {
		r := &reports[i]
		r.T = tids[r.T]
		r.Prev = epoch.Make(tids[r.Prev.Tid()], r.Prev.Clock())
	}
	return reports
}

// Meta is the sidecar the shim writes next to the trace: the verdict of
// the inline check, the source names that render it, what a check of the
// capture needs that the trace bytes cannot carry — the channel
// capacities for the rule-6 validator and the lowering — and the shim's
// own counters. Its size follows the reports, not the traced objects.
type Meta struct {
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Timeouts counts log-side channel waits that hit EnvChanWait: each
	// one marks a channel with uninstrumented peers going lossy, after
	// which the capture on that channel is best-effort.
	Timeouts uint64 `json:"timeouts,omitempty"`
	// Vars names each report's variable ("counter main.go:7:6"), no other.
	Vars map[trace.Var]string `json:"vars"`
	// Chans holds each buffered channel's capacity, by channel id.
	Chans map[trace.Lock]int `json:"chans,omitempty"`

	// Reports are the inline check's races, at most one per variable, in
	// detection order: what goinstr.Check finds in the capture.
	Reports []kernel.Report `json:"reports"`
	// Error, when set, is the inline check's error instead: the
	// validator's positioned message for the first record it rejected.
	// The check stopped there, and Reports is empty.
	Error string `json:"error,omitempty"`
}

// Goroutine identity. The Go runtime deliberately hides goroutine ids, so
// the shim has exactly one portable way to get one: parse the "goroutine
// N [running]:" header runtime.Stack prints. The runtime never reuses an
// id within a process, so the gs key can never alias another goroutine.

// stackHeader is the prefix runtime.Stack prints before the goroutine id.
const stackHeader = "goroutine "

// stackBufs recycles the tiny header buffers: runtime.Stack's argument
// escapes, so a plain stack array would cost one 64-byte allocation per
// call. The id and the " [" that terminates it always fit in 64 bytes —
// ids are decimal int64s.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// goid returns the runtime id of the calling goroutine, parsed from the
// runtime.Stack header. Steady state it does not allocate; the cost is
// the runtime.Stack call itself, a few microseconds, which Bind pays once
// per instrumented function call — BenchmarkID read 5.0–6.1 µs/op over
// `go test -run '^$' -bench 'ID$' -count 5 ./internal/goinstr/rt` on
// go1.24.0 with 2 CPUs.
func goid() int64 {
	buf := stackBufs.Get().(*[64]byte)
	n := runtime.Stack(buf[:], false)
	id := parseHeader(buf[:n])
	stackBufs.Put(buf)
	return id
}

// parseHeader extracts the goroutine id from a runtime.Stack prefix. It
// returns 0 (never a valid goroutine id — the runtime numbers from 1) if
// the buffer does not look like a stack header; split out for testing.
func parseHeader(b []byte) int64 {
	if !bytes.HasPrefix(b, []byte(stackHeader)) {
		return 0
	}
	b = b[len(stackHeader):]
	var id int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
