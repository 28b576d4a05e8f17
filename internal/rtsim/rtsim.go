// Package rtsim is the RoadRunner substitute (§7): a small runtime that
// couples a target program's *real* synchronization (goroutines, mutexes,
// barriers, volatiles) with a race detector's event handlers, providing the
// two properties the paper's correctness argument assumes of RoadRunner:
//
//  1. a one-to-one mapping between program threads/locks/variables and
//     their shadow-state identities; and
//  2. each event handler executes inline in the thread performing the
//     operation, so handlers race against each other exactly as the
//     idealized implementations of §4–5 contemplate.
//
// Handler placement follows §4: the handlers for acquire and join run
// *after* the target operation (so the target lock is held / the child has
// terminated); all other handlers run *before* it.
//
// A Runtime built with a nil detector runs the target uninstrumented; the
// benchmark harness uses that as the base time when computing overheads,
// mirroring the paper's methodology (§8). Instrumented and base runs
// execute the identical target code — including the atomic value accesses
// Var uses to keep even deliberately racy example programs well-defined in
// Go — so the ratio isolates pure checking overhead.
package rtsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Runtime owns the identity spaces for threads, variables and locks of one
// target-program execution, and the (optional) detector receiving its
// events.
type Runtime struct {
	d core.Detector // nil: uninstrumented base run
	s *sched.Scheduler

	nextTid  atomic.Int32
	nextVar  atomic.Int32
	nextLock atomic.Int32

	main *Thread
}

// New returns a free-running Runtime delivering events to d; pass nil for
// an uninstrumented base run.
func New(d core.Detector) *Runtime {
	rt := &Runtime{d: d}
	rt.nextTid.Store(1) // 0 is the main thread
	rt.main = &Thread{rt: rt, id: 0, done: make(chan struct{})}
	return rt
}

// NewControlled returns a Runtime whose threads are serialized through s:
// every instrumented operation is a scheduling point, every blocking
// primitive is modeled inside the scheduler, and the whole execution —
// including the event linearization a detector or recorder observes — is a
// deterministic function of the program and the scheduler's seed.
//
// The calling goroutine is the main thread; after the target returns it
// must call Shutdown so un-joined children drain and the run quiesces.
// Under control the detector handlers run one at a time (the turn hand-off
// serializes them), so controlled runs explore operation interleavings;
// the free-running stress tests remain the coverage for intra-handler
// memory races.
func NewControlled(d core.Detector, s *sched.Scheduler) *Runtime {
	rt := New(d)
	rt.s = s
	s.RegisterMain(0)
	return rt
}

// Shutdown ends a controlled run: the main thread exits the scheduler and
// blocks until every forked thread has run to completion. It is a no-op on
// a free-running Runtime.
func (rt *Runtime) Shutdown() {
	if rt.s != nil {
		rt.s.Exit(0)
		rt.s.Wait()
	}
}

// yield is the per-operation scheduling point; free-running runtimes pay
// one nil check.
func (rt *Runtime) yield(t *Thread) {
	if rt.s != nil {
		rt.s.Yield(int(t.id))
	}
}

// Detector returns the runtime's detector (nil for base runs).
func (rt *Runtime) Detector() core.Detector { return rt.d }

// Reports returns the detector's reports, or nil for a base run.
func (rt *Runtime) Reports() []core.Report {
	if rt.d == nil {
		return nil
	}
	return rt.d.Reports()
}

// Main returns the main thread (tid 0), from which the target starts.
func (rt *Runtime) Main() *Thread { return rt.main }

// Thread is an instrumented thread identity. All operations of a goroutine
// must go through the Thread it was handed; sharing a Thread between
// goroutines breaks the event model (and the detectors' confinement
// discipline), just as sharing a RoadRunner ThreadState would.
type Thread struct {
	rt   *Runtime
	id   epoch.Tid
	done chan struct{}
}

// ID returns the thread's identity.
func (t *Thread) ID() epoch.Tid { return t.id }

// Go forks a child thread: the fork event fires in the parent before the
// child goroutine starts, per the [Fork] handler contract. The returned
// Thread can be passed to Join.
func (t *Thread) Go(body func(*Thread)) *Thread {
	t.rt.yield(t)
	id := epoch.Tid(t.rt.nextTid.Add(1) - 1)
	child := &Thread{rt: t.rt, id: id, done: make(chan struct{})}
	if s := t.rt.s; s != nil {
		s.Fork(int(t.id), int(id))
	}
	if d := t.rt.d; d != nil {
		d.Fork(t.id, child.id)
	}
	go func() {
		if s := t.rt.s; s != nil {
			// The exit notification must follow the done close (deferred
			// calls run in reverse order) so woken joiners never block on
			// the channel.
			defer s.Exit(int(id))
		}
		defer close(child.done)
		if s := t.rt.s; s != nil {
			s.Started(int(id))
		}
		body(child)
	}()
	return child
}

// Join blocks until the child goroutine has returned, then fires the join
// event ([Join] runs after the target operation). Several threads may join
// the same child; with the VerifiedFT variants that is safe by
// construction (a terminated thread's state is read-only), while the FT
// baselines' original [Join] rule mutates the joined state — the §3
// discipline hazard — so concurrent double joins must be externally
// ordered when driving ft-mutex or ft-cas.
func (t *Thread) Join(child *Thread) {
	if s := t.rt.s; s != nil {
		s.Yield(int(t.id))
		s.JoinThread(int(t.id), int(child.id))
	}
	<-child.done
	if d := t.rt.d; d != nil {
		d.Join(t.id, child.id)
	}
}

// Parallel forks n workers, runs body(worker, index) in each, and joins
// them all — the fork/join skeleton every workload kernel uses.
func (t *Thread) Parallel(n int, body func(w *Thread, i int)) {
	children := make([]*Thread, n)
	for i := 0; i < n; i++ {
		i := i
		children[i] = t.Go(func(w *Thread) { body(w, i) })
	}
	for _, c := range children {
		t.Join(c)
	}
}

// Var is an instrumented memory location holding an int64. The value is
// accessed atomically so that even racy target programs stay well-defined
// Go (a Java program's racy reads are defined; a Go program's are not), in
// base and instrumented runs alike.
type Var struct {
	rt *Runtime
	id trace.Var
	v  atomic.Int64
}

// NewVar allocates one instrumented variable.
func (rt *Runtime) NewVar() *Var {
	return &Var{rt: rt, id: trace.Var(rt.nextVar.Add(1) - 1)}
}

// ID returns the variable's identity.
func (x *Var) ID() trace.Var { return x.id }

// Load performs an instrumented read by thread t.
func (x *Var) Load(t *Thread) int64 {
	x.rt.yield(t)
	if d := x.rt.d; d != nil {
		d.Read(t.id, x.id)
	}
	return x.v.Load()
}

// Store performs an instrumented write by thread t.
func (x *Var) Store(t *Thread, val int64) {
	x.rt.yield(t)
	if d := x.rt.d; d != nil {
		d.Write(t.id, x.id)
	}
	x.v.Store(val)
}

// Add performs an instrumented read-modify-write (one read event, one write
// event, like the compound bytecode RoadRunner would instrument).
func (x *Var) Add(t *Thread, delta int64) int64 {
	x.rt.yield(t)
	if d := x.rt.d; d != nil {
		d.Read(t.id, x.id)
		d.Write(t.id, x.id)
	}
	return x.v.Add(delta)
}

// Array is a contiguous block of instrumented variables — the shape of the
// JavaGrande kernels' data. Each element has its own shadow identity, as
// with RoadRunner's fine-grained array shadowing.
type Array struct {
	rt   *Runtime
	base trace.Var
	vals []atomic.Int64
}

// NewArray allocates n instrumented variables with consecutive ids.
func (rt *Runtime) NewArray(n int) *Array {
	base := trace.Var(rt.nextVar.Add(int32(n)) - int32(n))
	return &Array{rt: rt, base: base, vals: make([]atomic.Int64, n)}
}

// Len returns the element count.
func (a *Array) Len() int { return len(a.vals) }

// ID returns the shadow identity of element i.
func (a *Array) ID(i int) trace.Var { return a.base + trace.Var(i) }

// Load performs an instrumented read of element i.
func (a *Array) Load(t *Thread, i int) int64 {
	a.rt.yield(t)
	if d := a.rt.d; d != nil {
		d.Read(t.id, a.base+trace.Var(i))
	}
	return a.vals[i].Load()
}

// Store performs an instrumented write of element i.
func (a *Array) Store(t *Thread, i int, val int64) {
	a.rt.yield(t)
	if d := a.rt.d; d != nil {
		d.Write(t.id, a.base+trace.Var(i))
	}
	a.vals[i].Store(val)
}

// Add performs an instrumented read-modify-write of element i.
func (a *Array) Add(t *Thread, i int, delta int64) int64 {
	a.rt.yield(t)
	if d := a.rt.d; d != nil {
		d.Read(t.id, a.base+trace.Var(i))
		d.Write(t.id, a.base+trace.Var(i))
	}
	return a.vals[i].Add(delta)
}

// Mutex is an instrumented lock. Acquire events fire after the real lock is
// taken and release events before it is dropped, so handlers touching the
// LockState run under the target lock's protection, per the §4 discipline.
type Mutex struct {
	rt *Runtime
	id trace.Lock
	mu sync.Mutex
}

// NewMutex allocates an instrumented lock.
func (rt *Runtime) NewMutex() *Mutex {
	return &Mutex{rt: rt, id: trace.Lock(rt.nextLock.Add(1) - 1)}
}

// ID returns the lock's identity.
func (m *Mutex) ID() trace.Lock { return m.id }

// Lock acquires the lock as thread t. Under controlled scheduling the
// blocking is modeled by the scheduler (so a waiter leaves the runnable
// set), after which the real mutex acquisition below cannot contend.
func (m *Mutex) Lock(t *Thread) {
	if s := m.rt.s; s != nil {
		s.Yield(int(t.id))
		s.AcquireLock(int(t.id), int(m.id))
	}
	m.mu.Lock()
	if d := m.rt.d; d != nil {
		d.Acquire(t.id, m.id)
	}
}

// Unlock releases the lock as thread t.
func (m *Mutex) Unlock(t *Thread) {
	if s := m.rt.s; s != nil {
		s.Yield(int(t.id))
	}
	if d := m.rt.d; d != nil {
		d.Release(t.id, m.id)
	}
	m.mu.Unlock()
	if s := m.rt.s; s != nil {
		s.ReleaseLock(int(t.id), int(m.id))
	}
}

// Volatile is an instrumented volatile location (§7): reads and writes are
// atomic and establish happens-before, but are never race-checked. The
// detector sees each access as an acquire/release pair on a dedicated
// shadow lock — the same lowering trace.Desugar uses — performed under an
// internal mutex so the LockState discipline holds.
type Volatile struct {
	rt *Runtime
	id trace.Lock
	mu sync.Mutex
	v  atomic.Int64
}

// NewVolatile allocates an instrumented volatile.
func (rt *Runtime) NewVolatile() *Volatile {
	return &Volatile{rt: rt, id: trace.Lock(rt.nextLock.Add(1) - 1)}
}

// Load performs a volatile read by t.
//
// The value access happens inside the same critical section as the shadow
// acquire/release: a reader that observes a writer's value is then
// guaranteed to have absorbed the writer's clock. Splitting them would let
// the target's value outrun the shadow edge and produce false positives on
// data published through the volatile.
func (v *Volatile) Load(t *Thread) int64 {
	v.rt.yield(t)
	d := v.rt.d
	if d == nil {
		return v.v.Load()
	}
	v.mu.Lock()
	d.Acquire(t.id, v.id)
	val := v.v.Load()
	d.Release(t.id, v.id)
	v.mu.Unlock()
	return val
}

// Store performs a volatile write by t; see Load for why the value access
// and the shadow events share one critical section.
func (v *Volatile) Store(t *Thread, val int64) {
	v.rt.yield(t)
	d := v.rt.d
	if d == nil {
		v.v.Store(val)
		return
	}
	v.mu.Lock()
	d.Acquire(t.id, v.id)
	v.v.Store(val)
	d.Release(t.id, v.id)
	v.mu.Unlock()
}

// Barrier is an instrumented cyclic barrier for a fixed party count (§7).
// Arrivals and departures each perform an acquire/release of a shadow lock
// under the barrier's mutex — the two-phase lowering of trace.Desugar — so
// every pre-barrier operation happens before every post-barrier operation
// in the detector's view, exactly as the real barrier orders the target.
type Barrier struct {
	rt      *Runtime
	id      trace.Lock
	parties int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
}

// NewBarrier allocates a barrier for the given party count.
func (rt *Runtime) NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("rtsim: barrier parties = %d", parties))
	}
	b := &Barrier{rt: rt, id: trace.Lock(rt.nextLock.Add(1) - 1), parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks thread t until all parties of the current round arrive.
func (b *Barrier) Await(t *Thread) {
	d := b.rt.d
	if s := b.rt.s; s != nil {
		// Controlled path: the round bookkeeping lives in the scheduler,
		// and the detector events need no extra mutex — the turn
		// serializes them. Arrival events run before blocking and
		// departure events after the last arrival, so every pre-barrier
		// operation happens before every post-barrier one in the
		// detector's view, as on the free-running path.
		s.Yield(int(t.id))
		if d != nil {
			d.Acquire(t.id, b.id)
			d.Release(t.id, b.id)
		}
		s.BarrierAwait(int(t.id), int(b.id), b.parties)
		if d != nil {
			d.Acquire(t.id, b.id)
			d.Release(t.id, b.id)
		}
		return
	}
	b.mu.Lock()
	if d != nil { // arrival: publish t's clock into the round
		d.Acquire(t.id, b.id)
		d.Release(t.id, b.id)
	}
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		gen := b.gen
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	if d != nil { // departure: absorb every arrival's clock
		d.Acquire(t.id, b.id)
		d.Release(t.id, b.id)
	}
	b.mu.Unlock()
}

// Handle is a one-shot publication cell for *Thread values with no
// detector events attached. Controlled drivers (internal/conformance) use
// it to hand a forked Thread to a joiner that is not the forker: the
// blocking is modeled in the scheduler so the turn is surrendered while
// waiting, but — unlike a Volatile — no acquire/release events reach the
// detector, so the analyzed trace gains no happens-before edge. The only
// effect on exploration is the constraint the original program order
// already implies (a join of u cannot run before fork(·,u)).
//
// On a free-running Runtime the same contract is met with a channel.
type Handle struct {
	rt  *Runtime
	key int
	ch  chan struct{}
	val *Thread
}

// NewHandle allocates an empty handle.
func (rt *Runtime) NewHandle() *Handle {
	// Handles draw keys from the lock id space: scheduler events live in
	// their own namespace, so sharing the counter merely guarantees
	// uniqueness.
	return &Handle{rt: rt, key: int(rt.nextLock.Add(1) - 1), ch: make(chan struct{})}
}

// Set publishes v; it must be called exactly once, by a thread holding the
// turn when the runtime is controlled.
func (h *Handle) Set(v *Thread) {
	h.val = v
	if s := h.rt.s; s != nil {
		s.Post(h.key)
		return
	}
	close(h.ch)
}

// Get blocks thread t until Set has run, then returns the published value.
func (h *Handle) Get(t *Thread) *Thread {
	if s := h.rt.s; s != nil {
		s.WaitEvent(int(t.id), h.key)
		return h.val
	}
	<-h.ch
	return h.val
}
