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
// Validation sits on the critical path of every check — sequentially it
// runs in front of the detector, and in the parallel checker it is part
// of the serial prepass Amdahl's law punishes — so the per-id state lives
// in dense slices indexed by id, one byte per thread and one slot per
// lock, with a map spill for lock ids outside the dense window (huge or
// negative) so the accepted language is exactly the map implementation's.
// Thread ids need no spill: Check admits only [0, MaxTid].
type Validator struct {
	// MaxTid is the largest acceptable thread id; NewValidator sets it to
	// epoch.MaxTid. Callers checking with a detector whose epoch format is
	// narrower (FT-CAS's 8-bit tids) lower it, so the limit is a positioned
	// input error instead of a panic inside the detector.
	MaxTid epoch.Tid

	// MaxLock is the exclusive upper bound on acceptable lock ids; zero
	// means the default real-lock space (so Desugar's pseudo-locks can
	// never collide with a real lock). Stages validating an
	// already-lowered stream raise it.
	MaxLock Lock

	// Ext supplies the channel buffer capacities constraint (6) depends
	// on; nil means every channel is unbuffered. Use the same Extensions
	// here as in the lowering that follows.
	Ext *Extensions

	n int

	// threads packs a thread's lifecycle into one byte: the low two bits
	// hold the threadPhase, actedBit records whether it has performed any
	// op yet. Index is the tid.
	threads []uint8
	locks   []lockSlot

	// locksHi is the spill state for lock ids outside
	// [0, denseValidatorIDs).
	locksHi map[Lock]lockSlot

	// Channel-discipline state (constraint 6); allocated on first channel
	// op so core-language traces pay nothing.
	chans     map[Lock]*chanValState
	blockedOn map[epoch.Tid]Lock // thread -> channel it is blocked sending on
}

// chanValState is one channel's validation state.
type chanValState struct {
	sends   int // completed sends
	recvs   int // completed receives
	closed  bool
	blocked []epoch.Tid // blocked senders, FIFO arrival order
}

// lockSlot is a lock's validation state: who holds it, if anyone.
type lockSlot struct {
	held   bool
	holder epoch.Tid
}

const (
	phaseMask = 0b011
	actedBit  = 0b100

	// denseValidatorIDs bounds the slice-indexed lock id window; beyond it
	// (or below zero) state spills to a map so hostile sparse ids cannot
	// force huge allocations.
	denseValidatorIDs = 1 << 16
)

// NewValidator returns a Validator in the initial state (main thread
// running, no locks held, no operation seen).
func NewValidator() *Validator {
	return &Validator{MaxTid: epoch.MaxTid, threads: []uint8{uint8(phaseRunning)}}
}

// Count returns how many operations have been accepted so far.
func (v *Validator) Count() int { return v.n }

// thread reads a thread's packed lifecycle byte; t is in range (Check
// rejects the rest first) and never-touched threads read as zero.
func (v *Validator) thread(t epoch.Tid) uint8 {
	if int(t) < len(v.threads) {
		return v.threads[t]
	}
	return 0
}

func (v *Validator) setThread(t epoch.Tid, s uint8) {
	for int(t) >= len(v.threads) {
		v.threads = append(v.threads, 0)
	}
	v.threads[t] = s
}

func (v *Validator) lock(m Lock) lockSlot {
	if uint32(m) < uint32(len(v.locks)) {
		return v.locks[m]
	}
	if uint32(m) < denseValidatorIDs {
		return lockSlot{}
	}
	return v.locksHi[m]
}

func (v *Validator) setLock(m Lock, s lockSlot) {
	if uint32(m) < denseValidatorIDs {
		for int(m) >= len(v.locks) {
			v.locks = append(v.locks, lockSlot{})
		}
		v.locks[m] = s
		return
	}
	if v.locksHi == nil {
		v.locksHi = map[Lock]lockSlot{}
	}
	v.locksHi[m] = s
}

func (v *Validator) fail(op Op, rule int, msg string) error {
	return &InfeasibleError{Index: v.n, Op: op, Rule: rule, Msg: msg}
}

// chanFor returns channel c's validation state, allocating it (and the
// channel table) on first use.
func (v *Validator) chanFor(c Lock) *chanValState {
	if v.chans == nil {
		v.chans = map[Lock]*chanValState{}
	}
	st, ok := v.chans[c]
	if !ok {
		st = &chanValState{}
		v.chans[c] = st
	}
	return st
}

// unblock completes the oldest blocked send of st, if any.
func (v *Validator) unblock(st *chanValState) {
	if len(st.blocked) == 0 {
		return
	}
	t := st.blocked[0]
	st.blocked = st.blocked[1:]
	delete(v.blockedOn, t)
	st.sends++
}

// Check validates the next operation of the stream against the state
// accumulated so far. On violation it returns an *InfeasibleError — or,
// for a thread id no epoch can hold, a *TidRangeError — whose Index is the
// operation's position (0-based) and leaves the validator unchanged; the
// op is not admitted.
func (v *Validator) Check(op Op) error {
	// U is zero outside fork/join; the unsigned compares reject negative
	// ids along with the huge ones.
	if uint32(op.T) > uint32(v.MaxTid) {
		return &TidRangeError{Index: v.n, Op: op, Tid: op.T, Max: v.MaxTid}
	}
	if uint32(op.U) > uint32(v.MaxTid) {
		return &TidRangeError{Index: v.n, Op: op, Tid: op.U, Max: v.MaxTid}
	}
	// Constraint (4), first half: the acting thread must be running.
	ts := v.thread(op.T)
	switch threadPhase(ts & phaseMask) {
	case phaseUnstarted:
		return v.fail(op, 4, fmt.Sprintf("thread %d acts before being forked", op.T))
	case phaseJoined:
		return v.fail(op, 4, fmt.Sprintf("thread %d acts after being joined", op.T))
	}
	// Constraint (6): a thread blocked in a channel send may not act.
	if v.blockedOn != nil {
		if c, ok := v.blockedOn[op.T]; ok {
			return v.fail(op, 6, fmt.Sprintf("thread %d acts while blocked sending on channel c%d", op.T, c))
		}
	}

	switch op.Kind {
	case Acquire:
		maxLock := v.MaxLock
		if maxLock == 0 {
			maxLock = maxRealLock
		}
		if op.M >= maxLock {
			return v.fail(op, 1, "lock id exceeds the real-lock space")
		}
		if s := v.lock(op.M); s.held {
			return v.fail(op, 1, fmt.Sprintf("lock m%d already held by thread %d", op.M, s.holder))
		}
		v.setLock(op.M, lockSlot{held: true, holder: op.T})
	case Release:
		if s := v.lock(op.M); !s.held || s.holder != op.T {
			return v.fail(op, 2, fmt.Sprintf("thread %d releases lock m%d it does not hold", op.T, op.M))
		}
		v.setLock(op.M, lockSlot{holder: op.T})
	case Fork:
		if op.U == op.T {
			return v.fail(op, 3, "self-fork")
		}
		if threadPhase(v.thread(op.U)&phaseMask) != phaseUnstarted {
			return v.fail(op, 3, fmt.Sprintf("thread %d forked more than once (or is main)", op.U))
		}
		v.setThread(op.U, uint8(phaseRunning))
	case Join:
		if op.U == op.T {
			return v.fail(op, 4, "self-join")
		}
		// §2 permits several threads to join the same terminated
		// thread (constraint (4) only forbids operations *of u* after
		// a join), so a join on an already-joined thread is legal;
		// only joining a never-forked thread is not.
		us := v.thread(op.U)
		if threadPhase(us&phaseMask) == phaseUnstarted {
			return v.fail(op, 4, fmt.Sprintf("join on thread %d which was never forked", op.U))
		}
		// Constraint (5): u must have acted between fork and join.
		if us&actedBit == 0 {
			return v.fail(op, 5, fmt.Sprintf("no operation of thread %d between fork and join", op.U))
		}
		// Constraint (6): a blocked sender has not terminated, so joining
		// it would deadlock — and its send completes at a later receive,
		// which would put operations of u after join(t,u).
		if v.blockedOn != nil {
			if c, ok := v.blockedOn[op.U]; ok {
				return v.fail(op, 6, fmt.Sprintf("join on thread %d which is blocked sending on channel c%d", op.U, c))
			}
		}
		v.setThread(op.U, us&actedBit|uint8(phaseJoined))
	case ChanSend:
		st := v.chanFor(op.M)
		if st.closed {
			return v.fail(op, 6, fmt.Sprintf("send on closed channel c%d", op.M))
		}
		if c := v.Ext.Capacity(op.M); c > 0 && st.sends-st.recvs < c && len(st.blocked) == 0 {
			st.sends++
		} else {
			st.blocked = append(st.blocked, op.T)
			if v.blockedOn == nil {
				v.blockedOn = map[epoch.Tid]Lock{}
			}
			v.blockedOn[op.T] = op.M
		}
	case ChanRecv:
		st := v.chanFor(op.M)
		switch {
		case st.sends-st.recvs > 0 || len(st.blocked) > 0:
			// A buffered value is available, or an unbuffered rendezvous
			// pairs with the oldest blocked sender. Either way the
			// receive completes, and completing it lets the oldest
			// blocked sender (if any) complete too.
			st.recvs++
			v.unblock(st)
		case st.closed:
			// Zero-value receive; no sequence number consumed.
		default:
			return v.fail(op, 6, fmt.Sprintf("receive on channel c%d before any send (nothing buffered, no blocked sender, not closed)", op.M))
		}
	case ChanClose:
		st := v.chanFor(op.M)
		if st.closed {
			return v.fail(op, 6, fmt.Sprintf("close of closed channel c%d", op.M))
		}
		if len(st.blocked) > 0 {
			return v.fail(op, 6, fmt.Sprintf("close of channel c%d with %d blocked senders", op.M, len(st.blocked)))
		}
		st.closed = true
	}
	if ts&actedBit == 0 {
		v.setThread(op.T, ts|actedBit)
	}
	v.n++
	return nil
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
