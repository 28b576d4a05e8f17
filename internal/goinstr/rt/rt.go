// Package rt is the runtime shim linked into programs instrumented by the
// vft-go front-end (internal/goinstr). Rewritten source calls into it for
// every shared memory access and synchronization operation; the shim maps
// goroutines, variables, locks, channels, atomics and onces onto the dense
// id spaces of the trace language and streams a binary VFTb\x02 trace
// (trace format v2) that the verified checker replays offline, unchanged.
//
// The shim is deliberately self-contained — standard library plus
// repro/internal/goid only — because the front-end copies its source into
// the shadow module it generates, where no module requirements exist. It
// must not import internal/trace; instead it re-implements the ~40-line
// binary encoder, and a test in internal/goinstr pins the two wire formats
// together by decoding this encoder's output with trace.NewBinaryDecoder.
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
// delay). But a channel fed or drained by uninstrumented code —
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
// an accepted cost for a tracing shim, proportional to the name tables
// that grow alongside them.
package rt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"
	"unsafe"

	"repro/internal/goid"
)

// Operation kinds, byte-compatible with internal/trace.Kind. A test in
// internal/goinstr asserts the two enumerations agree.
const (
	kRead uint8 = iota
	kWrite
	kAcquire
	kRelease
	kFork
	kJoin
	kVolatileRead
	kVolatileWrite
	kBarrier
	kChanSend
	kChanRecv
	kChanClose
	kAtomicLoad
	kAtomicStore
	kAtomicRMW
	kOnceDo
	numKinds
)

// binaryMagic opens the stream: "VFTb" + version 2.
var binaryMagic = []byte{'V', 'F', 'T', 'b', 2}

// G is one goroutine's identity in the trace: its dense thread id. The
// rewriter binds a *G once per instrumented function body (__vftg :=
// __vft.Bind()) so the goid lookup is paid per call, not per access.
type G struct {
	tid int32
}

// Tid returns the goroutine's trace thread id.
func (g *G) Tid() int32 { return g.tid }

// state is the process-wide shim state. One per process; everything hangs
// off the package-level singleton so the generated call sites stay short.
type state struct {
	mu      sync.Mutex // guards encoder, id tables, names, counters
	active  bool
	file    *os.File
	w       *bufio.Writer
	opened  bool
	buf     [32]byte
	nextTid int32

	// The interning tables key on real pointers so the GC pins every
	// traced object: stable addresses, stable ids (see package comment).
	vars    map[unsafe.Pointer]int32 // object -> variable id (rd/wr X space)
	atomics map[unsafe.Pointer]int32 // object -> atomic location id (aload/... X space)
	locks   map[unsafe.Pointer]int32 // object -> lock id (acq/rel M space)
	onces   map[unsafe.Pointer]int32 // object -> once id (once M space)
	chanIDs map[unsafe.Pointer]*chanState

	varNames    map[int32]string
	atomicNames map[int32]string
	lockNames   map[int32]string
	onceNames   map[int32]string
	chanMeta    map[int32]chanMetaEntry

	events   uint64
	byKind   [numKinds]uint64
	dropped  uint64 // events dropped to keep the stream feasible
	timeouts uint64 // log-side waits that hit EnvChanWait (lossy channels)

	gs goid.Cache[*G]
}

type chanMetaEntry struct {
	Cap  int    `json:"cap"`
	Name string `json:"name"`
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

var st = &state{
	vars:        map[unsafe.Pointer]int32{},
	atomics:     map[unsafe.Pointer]int32{},
	locks:       map[unsafe.Pointer]int32{},
	onces:       map[unsafe.Pointer]int32{},
	chanIDs:     map[unsafe.Pointer]*chanState{},
	varNames:    map[int32]string{},
	atomicNames: map[int32]string{},
	lockNames:   map[int32]string{},
	onceNames:   map[int32]string{},
	chanMeta:    map[int32]chanMetaEntry{},
}

// EnvTrace and EnvMeta name the environment variables the shim reads at
// startup: the trace output path (empty disables capture — the program
// runs with the shim pass-through) and the meta sidecar path (defaulting
// to trace path + ".meta.json").
const (
	EnvTrace = "VFT_TRACE"
	EnvMeta  = "VFT_META"

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

func init() {
	path := os.Getenv(EnvTrace)
	if path == "" {
		// Capture disabled: register the main goroutine so Bind still
		// works, and make every wrapper a pass-through.
		st.nextTid = 1
		st.gs.Put(goid.ID(), &G{tid: 0})
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vft-rt: cannot open trace %q: %v (capture disabled)\n", path, err)
		st.nextTid = 1
		st.gs.Put(goid.ID(), &G{tid: 0})
		return
	}
	st.file = f
	st.w = bufio.NewWriterSize(f, 1<<16)
	st.active = true
	st.nextTid = 1
	st.gs.Put(goid.ID(), &G{tid: 0}) // the main goroutine is thread 0
}

// Bind returns the calling goroutine's trace identity, creating one if the
// goroutine was not spawned through an instrumented go statement (a
// goroutine started by an uninstrumented library, say). Such foreign
// goroutines are adopted with a fork from the main thread — a conservative
// happens-before edge that keeps the trace feasible.
func Bind() *G {
	id := goid.ID()
	return st.gs.GetOrPut(id, func() *G {
		st.mu.Lock()
		u := st.nextTid
		st.nextTid++
		st.emitLocked(kFork, 0, uint32(u))
		st.mu.Unlock()
		return &G{tid: u}
	})
}

// Fork allocates a child thread id and emits fork(parent, child); it runs
// in the parent, before the go statement spawns the child, so the fork
// event precedes every child event in the stream. Pair with Spawn.
func Fork(g *G) int32 {
	st.mu.Lock()
	u := st.nextTid
	st.nextTid++
	st.emitLocked(kFork, g.tid, uint32(u))
	st.mu.Unlock()
	return u
}

// Spawn runs fn as the body of the goroutine forked as thread u: it binds
// the current goroutine to u for the duration of fn. The rewriter emits
// `go __vft.Spawn(__vft.Fork(__vftg), func() { ... })`.
func Spawn(u int32, fn func()) {
	id := goid.ID()
	st.gs.Put(id, &G{tid: u})
	defer st.gs.Delete(id)
	fn()
}

// emitLocked appends one record; the caller holds st.mu.
func (s *state) emitLocked(kind uint8, t int32, arg uint32) {
	s.events++
	s.byKind[kind]++
	if !s.active {
		return
	}
	if !s.opened {
		s.opened = true
		s.w.Write(binaryMagic)
	}
	rec := s.buf[8:]
	rec[0] = kind
	n := 1
	n += binary.PutUvarint(rec[n:], uint64(uint32(t)))
	n += binary.PutUvarint(rec[n:], uint64(arg))
	ln := binary.PutUvarint(s.buf[:8], uint64(n))
	s.w.Write(s.buf[:ln])
	s.w.Write(rec[:n])
}

func emit(kind uint8, t int32, arg uint32) {
	st.mu.Lock()
	st.emitLocked(kind, t, arg)
	st.mu.Unlock()
}

// idFor interns an object in one of the id tables, recording the site
// string as its name on first touch. The table retains the pointer, so
// the object stays alive and its id can never alias another object's
// storage. The caller holds st.mu.
func idFor(tbl map[unsafe.Pointer]int32, names map[int32]string, addr unsafe.Pointer, site string) int32 {
	id, ok := tbl[addr]
	if !ok {
		id = int32(len(tbl))
		tbl[addr] = id
		names[id] = site
	}
	return id
}

// read and write log one access event. They are the slow halves of the
// generic wrappers in wrappers.go.
func read(g *G, site string, addr unsafe.Pointer) {
	st.mu.Lock()
	id := idFor(st.vars, st.varNames, addr, site)
	st.emitLocked(kRead, g.tid, uint32(id))
	st.mu.Unlock()
}

func write(g *G, site string, addr unsafe.Pointer) {
	st.mu.Lock()
	id := idFor(st.vars, st.varNames, addr, site)
	st.emitLocked(kWrite, g.tid, uint32(id))
	st.mu.Unlock()
}

func emitAtomic(g *G, kind uint8, addr unsafe.Pointer, site string) {
	st.mu.Lock()
	id := idFor(st.atomics, st.atomicNames, addr, site)
	st.emitLocked(kind, g.tid, uint32(id))
	st.mu.Unlock()
}

// Mutexes: acquire logs after Lock returns, release logs before Unlock is
// called, so the stream always shows rel before the next acq.

// MutexLock locks m and logs the acquire.
func MutexLock(g *G, site string, m *sync.Mutex) {
	m.Lock()
	st.mu.Lock()
	id := idFor(st.locks, st.lockNames, addrOf(m), site)
	st.emitLocked(kAcquire, g.tid, uint32(id))
	st.mu.Unlock()
}

// MutexUnlock logs the release and unlocks m.
func MutexUnlock(g *G, site string, m *sync.Mutex) {
	st.mu.Lock()
	id := idFor(st.locks, st.lockNames, addrOf(m), site)
	st.emitLocked(kRelease, g.tid, uint32(id))
	st.mu.Unlock()
	m.Unlock()
}

// MutexTryLock forwards TryLock, logging the acquire only on success.
func MutexTryLock(g *G, site string, m *sync.Mutex) bool {
	if !m.TryLock() {
		return false
	}
	st.mu.Lock()
	id := idFor(st.locks, st.lockNames, addrOf(m), site)
	st.emitLocked(kAcquire, g.tid, uint32(id))
	st.mu.Unlock()
	return true
}

// RWMutexes are modeled as atomic RMWs on a per-mutex pseudo-location:
// every operation totally orders with every other through the location's
// pseudo-lock chain, which over-synchronizes (two read-critical sections
// become ordered) but stays feasible — two concurrent RLock holders could
// not both log an acquire of one trace lock. Acquire-like ops log after
// the real operation, release-like ops before, as for atomics.

func RWLock(g *G, site string, m *sync.RWMutex) { m.Lock(); emitAtomic(g, kAtomicRMW, addrOf(m), site) }
func RWRLock(g *G, site string, m *sync.RWMutex) {
	m.RLock()
	emitAtomic(g, kAtomicRMW, addrOf(m), site)
}

func RWUnlock(g *G, site string, m *sync.RWMutex) {
	emitAtomic(g, kAtomicRMW, addrOf(m), site)
	m.Unlock()
}

func RWRUnlock(g *G, site string, m *sync.RWMutex) {
	emitAtomic(g, kAtomicRMW, addrOf(m), site)
	m.RUnlock()
}

// WaitGroups: Done is release-like (logged before the real operation),
// Wait is acquire-like (logged after it returns). Every logged Done
// therefore precedes the Wait that observed it, giving the Done → Wait
// happens-before edge through the pseudo-location's chain. An Add with a
// negative delta is a Done and logs the same record; a positive Add
// releases nothing (sync.WaitGroup.Add calls race.ReleaseMerge only when
// delta < 0) and logs nothing.

func WGAdd(g *G, site string, wg *sync.WaitGroup, n int) {
	if n < 0 {
		emitAtomic(g, kAtomicRMW, addrOf(wg), site)
	}
	wg.Add(n)
}

func WGDone(g *G, site string, wg *sync.WaitGroup) {
	emitAtomic(g, kAtomicRMW, addrOf(wg), site)
	wg.Done()
}

func WGWait(g *G, site string, wg *sync.WaitGroup) {
	wg.Wait()
	emitAtomic(g, kAtomicLoad, addrOf(wg), site)
}

// OnceDo forwards once.Do. The executor logs its once event inside f —
// while every other Do on the same Once is still blocked — so the first
// once record in the stream is always the executor's, which is how the
// lowering picks the publishing thread.
func OnceDo(g *G, site string, o *sync.Once, f func()) {
	st.mu.Lock()
	id := idFor(st.onces, st.onceNames, addrOf(o), site)
	st.mu.Unlock()
	ran := false
	o.Do(func() {
		f()
		emit(kOnceDo, g.tid, uint32(id))
		ran = true
	})
	if !ran {
		emit(kOnceDo, g.tid, uint32(id))
	}
}

// chanFor interns a channel (by its runtime header pointer, via reflect)
// and snapshots its capacity for the meta sidecar.
func chanFor(c any, site string) *chanState {
	v := reflect.ValueOf(c)
	addr := v.UnsafePointer()
	st.mu.Lock()
	cs, ok := st.chanIDs[addr]
	if !ok {
		cs = &chanState{id: int32(len(st.chanIDs)), cap: v.Cap(), waitc: make(chan struct{})}
		st.chanIDs[addr] = cs
		st.chanMeta[cs.id] = chanMetaEntry{Cap: cs.cap, Name: site}
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
	emit(kChanSend, g.tid, uint32(cs.id))
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
// send) for a value receive, a logged close for a zero-value receive. For
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
		justified = cs.await(func() bool { return cs.closed })
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
	emit(kChanRecv, g.tid, uint32(cs.id))
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
	emit(kChanClose, g.tid, uint32(cs.id))
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
	emit(kChanSend, g.tid, uint32(cs.id))
	cs.sends++
	k := cs.sends
	cs.kick()
	cs.await(func() bool { return k-cs.recvs <= cs.cap })
	cs.mu.Unlock()
}

// Shutdown flushes the trace and writes the meta sidecar (variable,
// lock, atomic and once names; channel capacities; event counters). The
// rewriter defers it as the first statement of main, so it also runs when
// the program panics. Events emitted after Shutdown are dropped.
func Shutdown() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.active {
		return
	}
	st.active = false
	if !st.opened {
		st.opened = true
		st.w.Write(binaryMagic) // even an empty trace gets a header
	}
	st.w.Flush()
	st.file.Close()

	metaPath := os.Getenv(EnvMeta)
	if metaPath == "" {
		metaPath = st.file.Name() + ".meta.json"
	}
	kinds := map[string]uint64{}
	kindNames := []string{
		"rd", "wr", "acq", "rel", "fork", "join", "vrd", "vwr", "barrier",
		"send", "recv", "close", "aload", "astore", "armw", "once",
	}
	for k, n := range st.byKind {
		if n > 0 {
			kinds[kindNames[k]] = n
		}
	}
	meta := Meta{
		Events:   st.events,
		Dropped:  st.dropped,
		Timeouts: st.timeouts,
		Kinds:    kinds,
		Vars:     st.varNames,
		Atomics:  st.atomicNames,
		Locks:    st.lockNames,
		Onces:    st.onceNames,
		Chans:    st.chanMeta,
	}
	b, err := json.MarshalIndent(&meta, "", "  ")
	if err == nil {
		err = os.WriteFile(metaPath, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vft-rt: writing meta sidecar: %v\n", err)
	}
}

// Meta is the sidecar the shim writes next to the trace: everything the
// offline checker needs that the trace bytes cannot carry — channel
// capacities for the rule-6 validator and the lowering, source names for
// rendering reports, and the shim's own counters.
type Meta struct {
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Timeouts counts log-side channel waits that hit EnvChanWait: each
	// one marks a channel with uninstrumented peers going lossy, after
	// which the capture on that channel is best-effort.
	Timeouts uint64                  `json:"timeouts,omitempty"`
	Kinds    map[string]uint64       `json:"kinds"`
	Vars     map[int32]string        `json:"vars"`
	Atomics  map[int32]string        `json:"atomics,omitempty"`
	Locks    map[int32]string        `json:"locks,omitempty"`
	Onces    map[int32]string        `json:"onces,omitempty"`
	Chans    map[int32]chanMetaEntry `json:"chans,omitempty"`
}

// ChanCaps returns the channel-capacity map in the sidecar.
func (m *Meta) ChanCaps() map[int32]int {
	caps := map[int32]int{}
	for id, e := range m.Chans {
		if e.Cap > 0 {
			caps[id] = e.Cap
		}
	}
	return caps
}
