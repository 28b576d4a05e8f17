package trace

import (
	"fmt"

	"repro/internal/epoch"
)

// InfeasibleError describes the first violation of the feasibility
// constraints of §2 found in a trace or stream.
type InfeasibleError struct {
	Index int // position of the offending operation
	Op    Op
	Rule  int // which constraint is violated: 1-5 are §2's, 6 is channel discipline
	Msg   string
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("trace: infeasible at #%d %v: constraint (%d): %s",
		e.Index, e.Op, e.Rule, e.Msg)
}

// TidRangeError reports an operation naming a thread id outside [0, Max]:
// the selected detector's epoch format cannot represent it, so the trace
// cannot be checked. Max is epoch.MaxTid unless the variant's format is
// narrower (Validator.MaxTid).
type TidRangeError struct {
	Index int // position of the offending operation
	Op    Op
	Tid   epoch.Tid
	Max   epoch.Tid
}

func (e *TidRangeError) Error() string {
	return fmt.Sprintf("trace: #%d %v: thread id %d outside 0..%d",
		e.Index, e.Op, e.Tid, e.Max)
}

// ClockRangeError reports an operation that would take thread Tid's clock
// past Max, the largest clock the selected detector's epoch format holds
// (FT-CAS's 24-bit clocks): the trace cannot be checked from there on.
type ClockRangeError struct {
	Index int // position of the offending operation
	Op    Op
	Tid   epoch.Tid
	Max   uint64
}

func (e *ClockRangeError) Error() string {
	return fmt.Sprintf("trace: #%d %v: clock of thread %d would exceed %d",
		e.Index, e.Op, e.Tid, e.Max)
}

// threadPhase tracks a thread through the fork/join lifecycle imposed by
// constraints (3)-(5) of §2.
type threadPhase uint8

const (
	phaseUnstarted threadPhase = iota // never forked; only thread 0 may act
	phaseRunning                      // forked (or main), not yet joined
	phaseJoined                       // some thread joined on it
)

// Validator checks the feasibility constraints of §2 incrementally, one
// operation at a time, so a stream can be validated as it is consumed
// instead of in a whole-trace pre-scan. Its state is O(thread and lock
// ids), independent of how many operations have passed through it.
//
// The five constraints over the core language (volatile, barrier, atomic
// and once ops are checked for their own sanity but impose no lock
// discipline of their own — desugar first if full checking of the lowered
// form is wanted):
//
//  1. no thread acquires a lock previously acquired but not released;
//  2. no thread releases a lock it did not previously acquire;
//  3. each thread is forked at most once;
//  4. no operations of u precede fork(t,u) or follow join(t,u);
//  5. at least one operation of u occurs between fork(t,u) and join(t',u).
//
// The channel kinds of trace format v2 add a sixth constraint family, the
// discipline a real Go execution obeys (Ext supplies per-channel buffer
// capacities; nil means unbuffered). A send that cannot complete — the
// buffer is full, or the channel is unbuffered — blocks its thread, and:
//
//  6. a blocked thread performs no operation until the receive that
//     completes its send; no send or close follows a close of the same
//     channel; a close does not strand blocked senders (it would panic
//     them in Go); a receive finds something to receive — a buffered
//     value, a blocked sender, or a closed channel (zero value); and no
//     thread joins a blocked sender (it has not terminated).
//
// Thread 0 is the main thread: it exists without a fork, as the paper's
// initial analysis state (which gives every thread an initial epoch)
// presumes. The validator additionally rejects self-forks, self-joins and
// real lock ids that collide with the pseudo-lock space, none of which
// §2's traces can express.
//
// Validation sits on the critical path of every check, in front of the
// detector, so the per-id state lives in dense slices indexed by id, one
// slot per thread, lock and channel; lock and channel ids outside the
// dense window (huge or negative) spill to a map (IDTable), so the
// accepted language is exactly the map implementation's. Thread ids need
// no spill: Check admits only [0, MaxTid].
//
// Check takes any kind. A check path that already switches on the kind
// calls the per-kind entries Check dispatches to — Access, Acquire,
// Release, Fork, Join, Chan — directly; they are the same code.
type Validator struct {
	// MaxTid is the largest acceptable thread id; NewValidator sets it to
	// epoch.MaxTid. Callers checking with a detector whose epoch format is
	// narrower (FT-CAS's 8-bit tids) lower it, so the limit is a positioned
	// input error instead of a panic inside the detector.
	MaxTid epoch.Tid

	// Ext supplies the channel buffer capacities constraint (6) depends
	// on; nil means every channel is unbuffered. Use the same Extensions
	// here as in the lowering that follows.
	Ext *Extensions

	n int

	// threads is the per-thread record, indexed by tid; tids lists the
	// threads by ordinal.
	threads []threadSlot
	tids    []epoch.Tid
	locks   IDTable[Lock, lockSlot]

	// Channel-discipline state (constraint 6); a channel is allocated on
	// its first op, so core-language traces pay nothing.
	chans IDTable[Lock, *chanState]
}

// threadSlot is a thread's validation state. The lifecycle byte packs the
// threadPhase into its low two bits; actedBit records whether the thread
// has performed any op yet, blockedBit whether it is blocked in a channel
// send, and blockedOn on which channel. ord is the thread's ordinal: 0
// for main, k for the k-th thread forked.
type threadSlot struct {
	state     uint8
	ord       epoch.Tid
	blockedOn Lock
}

// lockSlot is a lock's validation state: who holds it, if anyone.
type lockSlot struct {
	held   bool
	holder epoch.Tid
}

const (
	phaseMask  = 0b0011
	actedBit   = 0b0100
	blockedBit = 0b1000

	// settled is the lifecycle byte of a thread that has nothing left to
	// prove before it acts: running, has acted, not blocked.
	settled = uint8(phaseRunning) | actedBit

	// denseIDs is the IDTable window of the validator's and the lowerer's
	// per-lock, per-channel and per-object tables: 2^16 ids, 512 KiB a
	// table at most. Only synchronization objects have slots there, far
	// fewer than the variables the front stage's wider window serves.
	denseIDs = 1 << 16
)

// NewValidator returns a Validator in the initial state (main thread
// running, no locks held, no operation seen).
func NewValidator() *Validator {
	return &Validator{MaxTid: epoch.MaxTid, threads: []threadSlot{{state: uint8(phaseRunning)}}, tids: []epoch.Tid{0}}
}

// Count returns how many operations have been accepted so far.
func (v *Validator) Count() int { return v.n }

// Ordinal returns the ordinal of thread t, which an admitted op named: 0
// for the main thread, k for the k-th thread forked. Ordinals number the
// threads densely in the order a feasible trace first names them — the
// order the check path's renumbering wants.
func (v *Validator) Ordinal(t epoch.Tid) epoch.Tid { return v.threads[t].ord }

// Threads returns the threads forked so far, and main, by ordinal.
func (v *Validator) Threads() []epoch.Tid { return v.tids }

// thread reads a thread's packed lifecycle byte; t is in range (Check
// rejects the rest first) and never-touched threads read as zero.
func (v *Validator) thread(t epoch.Tid) uint8 {
	if int(t) < len(v.threads) {
		return v.threads[t].state
	}
	return 0
}

func (v *Validator) setThread(t epoch.Tid, s uint8) {
	for int(t) >= len(v.threads) {
		v.threads = append(v.threads, threadSlot{})
	}
	v.threads[t].state = s
}

func (v *Validator) fail(op Op, rule int, msg string) error {
	return &InfeasibleError{Index: v.n, Op: op, Rule: rule, Msg: msg}
}

// Check validates the next operation of the stream against the state
// accumulated so far. On violation it returns an *InfeasibleError — or,
// for a thread id no epoch can hold, a *TidRangeError — whose Index is the
// operation's position (0-based) and leaves the validator unchanged; the
// op is not admitted.
func (v *Validator) Check(op Op) error {
	switch op.Kind {
	case Acquire:
		return v.Acquire(op)
	case Release:
		return v.Release(op)
	case Fork:
		return v.Fork(op)
	case Join:
		return v.Join(op)
	case ChanSend, ChanRecv, ChanClose:
		_, err := v.Chan(op)
		return err
	default:
		// Accesses, and the volatile, barrier, atomic and once kinds, which
		// impose no discipline of their own.
		return v.Access(op)
	}
}

// actor checks that op's thread may act — it names ids an epoch can hold,
// it is running (constraint (4), first half), and it is not blocked in a
// channel send (constraint (6)) — and returns its lifecycle byte.
func (v *Validator) actor(op Op) (uint8, error) {
	if v.settled(op.T, op.U) {
		return settled, nil
	}
	// U is zero outside fork/join; the unsigned compares reject negative
	// ids along with the huge ones.
	if uint32(op.T) > uint32(v.MaxTid) {
		return 0, &TidRangeError{Index: v.n, Op: op, Tid: op.T, Max: v.MaxTid}
	}
	if uint32(op.U) > uint32(v.MaxTid) {
		return 0, &TidRangeError{Index: v.n, Op: op, Tid: op.U, Max: v.MaxTid}
	}
	ts := v.thread(op.T)
	switch threadPhase(ts & phaseMask) {
	case phaseUnstarted:
		return 0, v.fail(op, 4, fmt.Sprintf("thread %d acts before being forked", op.T))
	case phaseJoined:
		return 0, v.fail(op, 4, fmt.Sprintf("thread %d acts after being joined", op.T))
	}
	if ts&blockedBit != 0 {
		return 0, v.fail(op, 6, fmt.Sprintf("thread %d acts while blocked sending on channel c%d", op.T, v.threads[op.T].blockedOn))
	}
	return ts, nil
}

// settled reports whether thread t is settled and neither t nor u exceeds
// MaxTid — for an op acting as t and naming u, the answer actor gives
// before it looks further. It may report false where actor accepts (the
// tid test is coarse). (It takes the two ids, not the Op: a struct copied
// into an inlined call is reassembled through the stack.)
func (v *Validator) settled(t, u epoch.Tid) bool {
	return uint32(t) < uint32(len(v.threads)) && v.threads[t].state == settled &&
		uint32(t|u) <= uint32(v.MaxTid)
}

// admit records that thread t, whose lifecycle byte actor returned, has
// acted, and counts its op. (It takes t, not the Op, for settled's reason.)
func (v *Validator) admit(t epoch.Tid, ts uint8) {
	if ts&actedBit == 0 {
		v.setThread(t, ts|actedBit)
	}
	v.n++
}

// Access checks an operation that constrains only its acting thread: rd
// and wr, and the volatile, barrier, atomic and once kinds. The most
// frequent ops of all, so the settled case skips the call to actor.
func (v *Validator) Access(op Op) error {
	if v.settled(op.T, op.U) {
		v.n++
		return nil
	}
	ts, err := v.actor(op)
	if err != nil {
		return err
	}
	v.admit(op.T, ts)
	return nil
}

// Acquire checks acq(t,m): constraint (1), and a real-lock id.
func (v *Validator) Acquire(op Op) error {
	ts, err := v.actor(op)
	if err != nil {
		return err
	}
	if op.M >= maxRealLock {
		return v.fail(op, 1, "lock id exceeds the real-lock space")
	}
	if s := v.locks.Get(op.M); s.held {
		return v.fail(op, 1, fmt.Sprintf("lock m%d already held by thread %d", op.M, s.holder))
	}
	v.locks.Set(op.M, lockSlot{held: true, holder: op.T}, denseIDs)
	v.admit(op.T, ts)
	return nil
}

// Release checks rel(t,m): constraint (2).
func (v *Validator) Release(op Op) error {
	ts, err := v.actor(op)
	if err != nil {
		return err
	}
	if s := v.locks.Get(op.M); !s.held || s.holder != op.T {
		return v.fail(op, 2, fmt.Sprintf("thread %d releases lock m%d it does not hold", op.T, op.M))
	}
	v.locks.Set(op.M, lockSlot{holder: op.T}, denseIDs)
	v.admit(op.T, ts)
	return nil
}

// Fork checks fork(t,u): constraint (3).
func (v *Validator) Fork(op Op) error {
	ts, err := v.actor(op)
	if err != nil {
		return err
	}
	if op.U == op.T {
		return v.fail(op, 3, "self-fork")
	}
	if threadPhase(v.thread(op.U)&phaseMask) != phaseUnstarted {
		return v.fail(op, 3, fmt.Sprintf("thread %d forked more than once (or is main)", op.U))
	}
	v.setThread(op.U, uint8(phaseRunning))
	v.threads[op.U].ord = epoch.Tid(len(v.tids))
	v.tids = append(v.tids, op.U)
	v.admit(op.T, ts)
	return nil
}

// Join checks join(t,u): constraints (4) and (5), and (6)'s rule that a
// blocked sender has not terminated.
func (v *Validator) Join(op Op) error {
	ts, err := v.actor(op)
	if err != nil {
		return err
	}
	if op.U == op.T {
		return v.fail(op, 4, "self-join")
	}
	// §2 permits several threads to join the same terminated thread
	// (constraint (4) only forbids operations *of u* after a join), so a
	// join on an already-joined thread is legal; only joining a
	// never-forked thread is not.
	us := v.thread(op.U)
	if threadPhase(us&phaseMask) == phaseUnstarted {
		return v.fail(op, 4, fmt.Sprintf("join on thread %d which was never forked", op.U))
	}
	// Constraint (5): u must have acted between fork and join.
	if us&actedBit == 0 {
		return v.fail(op, 5, fmt.Sprintf("no operation of thread %d between fork and join", op.U))
	}
	// Constraint (6): a blocked sender has not terminated, so joining it
	// would deadlock — and its send completes at a later receive, which
	// would put operations of u after join(t,u).
	if us&blockedBit != 0 {
		return v.fail(op, 6, fmt.Sprintf("join on thread %d which is blocked sending on channel c%d", op.U, v.threads[op.U].blockedOn))
	}
	v.setThread(op.U, us&actedBit|uint8(phaseJoined))
	v.admit(op.T, ts)
	return nil
}

// Chan checks a send, receive or close under constraint (6) and returns
// what it did to its channel, which is what the lowering of the same op
// needs (Lowerer.AppendChan).
func (v *Validator) Chan(op Op) (ChanStep, error) {
	ts, err := v.actor(op)
	if err != nil {
		return ChanStep{}, err
	}
	s, why := channel(&v.chans, op.M, v.Ext).step(op)
	if why != "" {
		return s, v.fail(op, 6, why)
	}
	v.admit(op.T, ts)
	switch {
	case s.what == chanBlocked:
		v.threads[op.T].state |= blockedBit
		v.threads[op.T].blockedOn = op.M
	case s.woke:
		v.threads[s.sender].state &^= blockedBit
	}
	return s, nil
}

// Validate checks the feasibility constraints over a whole trace; see
// Validator for the constraint list. It is Check folded over the slice,
// with default Extensions (every channel unbuffered); use ValidateExt for
// traces with buffered channels.
func Validate(tr Trace) error {
	return ValidateExt(tr, nil)
}

// ValidateExt is Validate with explicit Extensions (channel buffer
// capacities).
func ValidateExt(tr Trace, ext *Extensions) error {
	v := NewValidator()
	v.Ext = ext
	for _, op := range tr {
		if err := v.Check(op); err != nil {
			return err
		}
	}
	return nil
}

// MustValidate panics if tr is infeasible; used by tests and generators
// whose traces are feasible by construction.
func MustValidate(tr Trace) {
	if err := Validate(tr); err != nil {
		panic(err)
	}
}

// validateSource is the streaming validation stage.
type validateSource struct {
	src Source
	v   *Validator
	err error // sticky
}

// ValidateSource returns a Source that passes src through unchanged while
// checking the feasibility constraints incrementally: the first
// infeasible operation terminates the stream with an *InfeasibleError
// carrying its index, instead of requiring a whole-trace pre-scan. After
// any error (including the underlying source's) the stage is terminal.
// ext supplies the channel capacities constraint (6) depends on; pass the
// same value to the DesugarSource stage that follows.
func ValidateSource(src Source, ext *Extensions) Source {
	v := NewValidator()
	v.Ext = ext
	return &validateSource{src: src, v: v}
}

func (s *validateSource) Next() (Op, error) {
	if s.err != nil {
		return Op{}, s.err
	}
	op, err := s.src.Next()
	if err != nil {
		s.err = err
		return Op{}, err
	}
	if err := s.v.Check(op); err != nil {
		s.err = err
		return Op{}, err
	}
	return op, nil
}
