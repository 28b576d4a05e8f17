// Package sched implements a cooperative controlled scheduler for the
// runtime simulator: it serializes a set of simulated threads so that at
// most one runs at a time, and decides at every scheduling point — one per
// instrumented operation — which thread runs next, using a pluggable,
// seed-deterministic policy (PCT random priorities or a plain random walk;
// see policy.go).
//
// The motivation is the gap the paper leaves open for the concrete ports:
// the CIVL proof certifies the idealized v2 algorithm, but the Go detectors
// are guarded only by whatever interleavings the Go runtime happens to
// produce. With this scheduler an execution is a pure function of a uint64
// seed, so rare schedules can be sampled on purpose and any failing one
// replayed exactly (`-seed`). Fava & Steffen ("Ready, set, Go!") and the
// O(1)-samples line of work both stress that detector outcomes depend
// heavily on which schedule is sampled; this package makes that sampling
// deliberate.
//
// Mechanics: each simulated thread owns a one-token gate channel. A thread
// runs only while it holds its token; at a scheduling point it surrenders
// the token, the scheduler picks the next runnable thread under a global
// mutex, and grants that thread's gate. Blocking operations (lock
// acquisition, join, barriers, condition waits) are modeled inside the
// scheduler — a blocked thread leaves the runnable set until the event it
// waits for occurs — so the simulated program never blocks on a real
// primitive while holding the turn, and a genuine deadlock of the simulated
// program is detected rather than hung on. All decisions are made under one
// mutex, in the serialized turn order, from policy state seeded by the run
// seed; given the same program and seed, the decision sequence — and hence
// the recorded event linearization — is identical on every run.
//
// The turn hand-off passes through channels and a mutex, so the Go race
// detector observes a happens-before chain between consecutive turns:
// detector handlers driven under the scheduler are serialized *and*
// race-detector-clean. (The flip side, documented in internal/rtsim: a
// controlled run exercises operation interleavings, not intra-handler
// memory races; the free-running stress tests keep covering those.)
package sched

import (
	"fmt"
	"sort"
	"sync"
)

// threadState is a simulated thread's scheduling state.
type threadState int

const (
	// ready: runnable, waiting to be picked.
	ready threadState = iota
	// running: holds the turn (at most one thread at a time).
	running
	// blocked: waiting for a scheduler-modeled event (lock, join,
	// barrier, cond, or a driver Post).
	blocked
	// exited: terminated; never scheduled again.
	exited
)

func (s threadState) String() string {
	switch s {
	case ready:
		return "ready"
	case running:
		return "running"
	case blocked:
		return "blocked"
	case exited:
		return "exited"
	}
	return fmt.Sprintf("threadState(%d)", int(s))
}

type thread struct {
	id    int
	state threadState
	// gate carries the turn token. Capacity 1: a thread is granted at
	// most once before it runs (grant flips state to running), so the
	// send never blocks.
	gate chan struct{}
	// wants describes what a blocked thread waits for, for deadlock
	// diagnostics.
	wants string
	// joinWaiters lists threads blocked joining this one.
	joinWaiters []int
}

type lockState struct {
	held    bool
	owner   int
	waiters []int
}

type barrierState struct {
	arrived int
	waiters []int
}

type condState struct {
	waiters []int
}

type eventState struct {
	posted  bool
	waiters []int
}

// Scheduler serializes simulated threads and drives them with a Policy.
// All exported methods except Wait and Steps must be called by the
// simulated thread they name, while that thread holds the turn (the
// runtime-simulator integration guarantees this).
type Scheduler struct {
	mu       sync.Mutex
	policy   Policy
	threads  map[int]*thread
	locks    map[int]*lockState
	barriers map[int]*barrierState
	conds    map[int]*condState
	events   map[int]*eventState
	steps    uint64
	live     int // registered, not yet exited
	done     chan struct{}
}

// New returns a scheduler driven by the given policy.
func New(p Policy) *Scheduler {
	return &Scheduler{
		policy:   p,
		threads:  map[int]*thread{},
		locks:    map[int]*lockState{},
		barriers: map[int]*barrierState{},
		conds:    map[int]*condState{},
		events:   map[int]*eventState{},
		done:     make(chan struct{}),
	}
}

// Wait blocks until every registered thread has exited.
func (s *Scheduler) Wait() { <-s.done }

func (s *Scheduler) newThread(id int, st threadState) *thread {
	if _, dup := s.threads[id]; dup {
		panic(fmt.Sprintf("sched: thread %d registered twice", id))
	}
	t := &thread{id: id, state: st, gate: make(chan struct{}, 1)}
	s.threads[id] = t
	s.live++
	s.policy.Register(id)
	return t
}

// RegisterMain registers the initial thread, which starts out holding the
// turn (its goroutine is already executing).
func (s *Scheduler) RegisterMain(tid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.newThread(tid, running)
}

// Fork registers a child thread as runnable. Called by the running parent
// before the child's goroutine starts; the child's first grant sits in its
// gate until the child calls Started.
func (s *Scheduler) Fork(parent, child int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.newThread(child, ready)
}

// Started blocks the calling (child) goroutine until its thread is first
// granted the turn.
func (s *Scheduler) Started(tid int) {
	s.mu.Lock()
	t := s.threads[tid]
	s.mu.Unlock()
	<-t.gate
}

// Yield is a scheduling point: the calling thread surrenders the turn,
// the policy picks the next runnable thread (possibly the caller), and the
// call returns once the caller is granted again.
func (s *Scheduler) Yield(tid int) {
	s.mu.Lock()
	t := s.threads[tid]
	t.state = ready
	s.dispatchLocked()
	s.mu.Unlock()
	<-t.gate
}

// Exit marks the calling thread terminated, wakes its joiners, and hands
// the turn onward. When the last thread exits, Wait is released.
func (s *Scheduler) Exit(tid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.threads[tid]
	t.state = exited
	s.live--
	for _, w := range t.joinWaiters {
		s.readyLocked(w)
	}
	t.joinWaiters = nil
	if s.live == 0 {
		close(s.done)
		return
	}
	s.dispatchLocked()
}

// JoinThread blocks the calling thread until child has exited. The real
// join edge (channel close in the runtime simulator) is separate; this
// only models the blocking for the scheduler.
func (s *Scheduler) JoinThread(tid, child int) {
	s.mu.Lock()
	t := s.threads[tid]
	for s.threads[child].state != exited {
		s.threads[child].joinWaiters = append(s.threads[child].joinWaiters, tid)
		s.blockLocked(t, fmt.Sprintf("join(%d)", child))
		s.mu.Unlock()
		<-t.gate
		s.mu.Lock()
	}
	s.mu.Unlock()
}

func (s *Scheduler) lock(key int) *lockState {
	l, ok := s.locks[key]
	if !ok {
		l = &lockState{}
		s.locks[key] = l
	}
	return l
}

// AcquireLock blocks the calling thread until it owns the scheduler-level
// lock key. The runtime simulator pairs it with the real (never-contended
// under control) mutex acquisition.
func (s *Scheduler) AcquireLock(tid, key int) {
	s.mu.Lock()
	t := s.threads[tid]
	l := s.lock(key)
	for l.held {
		l.waiters = append(l.waiters, tid)
		s.blockLocked(t, fmt.Sprintf("lock(%d) held by %d", key, l.owner))
		s.mu.Unlock()
		<-t.gate
		s.mu.Lock()
	}
	l.held, l.owner = true, tid
	s.mu.Unlock()
}

// ReleaseLock frees lock key and readies its waiters. The releaser keeps
// the turn until its next scheduling point.
func (s *Scheduler) ReleaseLock(tid, key int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lock(key)
	if !l.held || l.owner != tid {
		panic(fmt.Sprintf("sched: thread %d releases lock %d it does not own", tid, key))
	}
	l.held = false
	for _, w := range l.waiters {
		s.readyLocked(w)
	}
	l.waiters = nil
}

// BarrierAwait blocks the calling thread until parties threads have
// arrived at barrier key; the last arriver readies the others and keeps
// running.
func (s *Scheduler) BarrierAwait(tid, key, parties int) {
	s.mu.Lock()
	b, ok := s.barriers[key]
	if !ok {
		b = &barrierState{}
		s.barriers[key] = b
	}
	b.arrived++
	if b.arrived == parties {
		b.arrived = 0
		for _, w := range b.waiters {
			s.readyLocked(w)
		}
		b.waiters = nil
		s.mu.Unlock()
		return
	}
	t := s.threads[tid]
	b.waiters = append(b.waiters, tid)
	s.blockLocked(t, fmt.Sprintf("barrier(%d) %d/%d", key, b.arrived, parties))
	s.mu.Unlock()
	<-t.gate
}

func (s *Scheduler) cond(key int) *condState {
	c, ok := s.conds[key]
	if !ok {
		c = &condState{}
		s.conds[key] = c
	}
	return c
}

// CondWait models a monitor wait: it releases scheduler lock lockKey,
// blocks the calling thread on condition condKey, and — once signaled —
// reacquires the lock before returning.
func (s *Scheduler) CondWait(tid, condKey, lockKey int) {
	s.mu.Lock()
	t := s.threads[tid]
	l := s.lock(lockKey)
	if !l.held || l.owner != tid {
		panic(fmt.Sprintf("sched: thread %d waits on cond %d without lock %d", tid, condKey, lockKey))
	}
	l.held = false
	for _, w := range l.waiters {
		s.readyLocked(w)
	}
	l.waiters = nil

	c := s.cond(condKey)
	c.waiters = append(c.waiters, tid)
	s.blockLocked(t, fmt.Sprintf("cond(%d)", condKey))
	s.mu.Unlock()
	<-t.gate

	s.mu.Lock()
	for l.held {
		l.waiters = append(l.waiters, tid)
		s.blockLocked(t, fmt.Sprintf("lock(%d) held by %d", lockKey, l.owner))
		s.mu.Unlock()
		<-t.gate
		s.mu.Lock()
	}
	l.held, l.owner = true, tid
	s.mu.Unlock()
}

// CondSignal readies the longest-waiting thread on condKey, if any; it
// will reacquire the monitor when next scheduled.
func (s *Scheduler) CondSignal(condKey int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cond(condKey)
	if len(c.waiters) > 0 {
		s.readyLocked(c.waiters[0])
		c.waiters = c.waiters[1:]
	}
}

// CondBroadcast readies every thread waiting on condKey.
func (s *Scheduler) CondBroadcast(condKey int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cond(condKey)
	for _, w := range c.waiters {
		s.readyLocked(w)
	}
	c.waiters = nil
}

// Post marks one-shot event key as posted and readies its waiters. Unlike
// every other primitive it may be called by the running thread on behalf of
// a driver structure with no detector events attached (rtsim.Handle): it
// adds no happens-before edge to the analyzed trace, only a constraint on
// which schedules are explorable.
func (s *Scheduler) Post(key int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.events[key]
	if !ok {
		e = &eventState{}
		s.events[key] = e
	}
	e.posted = true
	for _, w := range e.waiters {
		s.readyLocked(w)
	}
	e.waiters = nil
}

// WaitEvent blocks the calling thread until event key has been posted;
// it returns immediately if it already was.
func (s *Scheduler) WaitEvent(tid, key int) {
	s.mu.Lock()
	t := s.threads[tid]
	for {
		e, ok := s.events[key]
		if !ok {
			e = &eventState{}
			s.events[key] = e
		}
		if e.posted {
			s.mu.Unlock()
			return
		}
		e.waiters = append(e.waiters, tid)
		s.blockLocked(t, fmt.Sprintf("event(%d)", key))
		s.mu.Unlock()
		<-t.gate
		s.mu.Lock()
	}
}

// readyLocked moves a blocked thread back to the runnable set.
func (s *Scheduler) readyLocked(tid int) {
	t := s.threads[tid]
	if t.state == blocked {
		t.state = ready
		t.wants = ""
	}
}

// blockLocked parks the calling thread and hands the turn onward.
func (s *Scheduler) blockLocked(t *thread, wants string) {
	t.state = blocked
	t.wants = wants
	s.dispatchLocked()
}

// dispatchLocked makes one scheduling decision: it collects the runnable
// threads in id order, asks the policy to pick one, and grants its gate.
// Called with s.mu held, always from the goroutine that just surrendered
// the turn, so decisions are totally ordered.
func (s *Scheduler) dispatchLocked() {
	runnable := make([]int, 0, len(s.threads))
	for id, t := range s.threads {
		if t.state == ready {
			runnable = append(runnable, id)
		}
	}
	if len(runnable) == 0 {
		panic("sched: deadlock — no runnable thread\n" + s.stateDumpLocked())
	}
	sort.Ints(runnable)
	s.steps++
	pick := s.policy.Pick(s.steps, runnable)
	t, ok := s.threads[pick]
	if !ok || t.state != ready {
		panic(fmt.Sprintf("sched: policy %s picked non-runnable thread %d from %v",
			s.policy.Name(), pick, runnable))
	}
	t.state = running
	t.gate <- struct{}{}
}

// stateDumpLocked renders every thread's state for deadlock diagnostics.
func (s *Scheduler) stateDumpLocked() string {
	ids := make([]int, 0, len(s.threads))
	for id := range s.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := ""
	for _, id := range ids {
		t := s.threads[id]
		out += fmt.Sprintf("  thread %d: %v", id, t.state)
		if t.wants != "" {
			out += " waiting for " + t.wants
		}
		out += "\n"
	}
	return out
}
