package trace

// Pseudo-lock classes: every extended operation lowers onto
// acquire/release pairs of pseudo-locks drawn from one first-use-ordered
// allocation sequence, keyed by (class, id) so distinct synchronization
// objects never share a lock. The class constants are internal — what is
// observable is only that equal (class, id) pairs map to one lock and the
// allocation order is the order of first use, which is what keeps the
// dense (slice Desugar) and parity (streaming) numberings bijective.
const (
	classVolatile  int32 = iota // id = volatile variable
	classBarrier                // id = barrier (one round lock, reused)
	classAtomic                 // id = atomic location
	classOnce                   // id = once id
	classChanClose              // id = channel (close → zero-value recvs)
	classChanRendz              // id = channel (unbuffered rendezvous)
	classChanSlot               // class+slot, id = channel (buffer ring)
)

// chanLowering is one channel's lowering state.
type chanLowering struct {
	sends   int // completed sends (value entered the buffer or rendezvoused)
	recvs   int // completed receives
	closed  bool
	blocked []Op // blocked send ops, FIFO arrival order
}

// Lowerer is the incremental §7 lowering of the extended trace language
// onto the six-kind core, shared by Trace.Desugar, DesugarSource and
// parcheck.CheckSource so the three entry points cannot drift. Feed
// it raw operations in trace order; it calls emit zero or more times per
// op with the lowered core operations.
//
// The lowering per kind (the §7 strategy of the paper, extended to the Go
// memory model per "Ready, set, Go!"):
//
//   - vrd/vwr(t,x): acquire+release of the volatile's pseudo-lock.
//   - barrier(t,b): arrivals are buffered until the round completes
//     (Ext.Parties per barrier, default 2), then every participant
//     acquires+releases the barrier's round lock twice — the double round
//     makes each participant's clock flow into every other's. A round
//     left incomplete at end of input is dropped.
//   - aload/astore/armw(t,a): acquire+release of the atomic location's
//     pseudo-lock. The Go memory model orders all atomics of one location
//     totally, each synchronizing with its predecessors, so every atomic
//     op — loads included — both publishes and observes through the
//     location's lock.
//   - once(t,o): acquire+release of the once id's pseudo-lock: the first
//     op of o publishes the executor's clock, later ones observe it.
//   - send(t,c): on a channel with buffer room, acquire+release of the
//     slot lock for slot (k mod C), k the send's sequence number — the
//     same lock recv k and send k+C use, which is exactly the Go memory
//     model's buffered-channel edges ("the k-th receive happens before
//     the (k+C)-th send completes"). With no room (or C = 0) the sender
//     blocks: the op is buffered and its lowering is emitted at the
//     matching receive. Sends still blocked at end of input are dropped,
//     like incomplete barrier rounds.
//   - recv(t,c): with a buffered value, acquire+release of that value's
//     slot lock; completing it may complete the oldest blocked send into
//     the freed slot (emitted right after, as the sender). On an
//     unbuffered channel the receive pairs with the oldest blocked send
//     as a rendezvous: sender and receiver acquire+release the channel's
//     rendezvous lock twice each (sender first, the arrival order), the
//     same double-round merge a 2-party barrier gets — the Go memory
//     model orders an unbuffered send and its receive both ways. On a
//     closed, drained channel the receive yields the zero value:
//     acquire+release of the channel's close lock, which is what orders
//     it after the close.
//   - close(t,c): acquire+release of the channel's close lock.
//
// Like the volatile lowering, the channel/atomic/once lowerings
// over-synchronize slightly — e.g. two atomic loads of one location
// become lock-ordered, and consecutive rendezvous of one channel are
// serialized through one lock — erring toward missing no real ordering
// while never inventing happens-before between threads that share no
// synchronization object.
//
// The Lowerer assumes its input is feasible (run it behind a Validator
// with the same Ext): an infeasible channel op — send on a closed
// channel, receive with nothing to receive — is dropped rather than
// guessed at.
type Lowerer struct {
	ext   *Extensions
	real  func(m Lock) Lock          // real-lock remap (identity or parity)
	alloc func(class, id int32) Lock // pseudo-lock allocator (dense or parity)

	arrivals map[Lock][]Op // pending ops of the current round, per barrier
	chans    map[Lock]*chanLowering
}

// NewLowerer returns a Lowerer over the given real-lock remap and
// pseudo-lock allocator. Both must be deterministic; alloc must return
// one lock per distinct (class, id) pair, disjoint from real's range.
func NewLowerer(ext *Extensions, real func(Lock) Lock, alloc func(class, id int32) Lock) *Lowerer {
	return &Lowerer{ext: ext, real: real, alloc: alloc}
}

// pseudoLocks returns a pseudo-lock allocator: the k-th distinct
// (class, id) pair, in first-use order, is lock number(k). The pair is
// packed into one word, which the runtime's map hashes on its 64-bit fast
// path — the allocator is consulted on every extended operation.
func pseudoLocks(number func(k Lock) Lock) func(class, id int32) Lock {
	var next Lock
	locks := map[uint64]Lock{}
	return func(class, id int32) Lock {
		key := uint64(class)<<32 | uint64(uint32(id))
		m, ok := locks[key]
		if !ok {
			m = number(next)
			next++
			locks[key] = m
		}
		return m
	}
}

// NewParityLowerer returns a Lowerer with the streaming id discipline: a
// real lock m maps to 2m and the k-th pseudo-lock (first-use order) to
// 2k+1, so the two spaces cannot collide without a whole-trace pre-scan.
func NewParityLowerer(ext *Extensions) *Lowerer {
	return NewLowerer(ext,
		func(m Lock) Lock { return 2 * m },
		pseudoLocks(func(k Lock) Lock { return 2*k + 1 }))
}

// NewDenseLowerer returns a Lowerer with the slice Desugar id discipline:
// real locks keep their ids and pseudo-locks are numbered densely from
// next (which must exceed every real lock id in the input).
func NewDenseLowerer(ext *Extensions, next Lock) *Lowerer {
	return NewLowerer(ext,
		func(m Lock) Lock { return m },
		pseudoLocks(func(k Lock) Lock { return next + k }))
}

func (l *Lowerer) chanFor(c Lock) *chanLowering {
	if l.chans == nil {
		l.chans = map[Lock]*chanLowering{}
	}
	st, ok := l.chans[c]
	if !ok {
		st = &chanLowering{}
		l.chans[c] = st
	}
	return st
}

// pair emits acquire+release of m by t.
func pair(emit func(Op), t Op, m Lock) {
	emit(Acq(t.T, m))
	emit(Rel(t.T, m))
}

// Lower feeds one raw operation through the lowering, emitting its core
// form. Core operations pass through (acquire/release with the real-lock
// remap applied); extended operations expand to zero or more core ops.
func (l *Lowerer) Lower(op Op, emit func(Op)) {
	switch op.Kind {
	case Acquire:
		emit(Acq(op.T, l.real(op.M)))
	case Release:
		emit(Rel(op.T, l.real(op.M)))
	case VolatileRead, VolatileWrite:
		pair(emit, op, l.alloc(classVolatile, int32(op.X)))
	case Barrier:
		n := l.ext.Parties(op.M)
		if l.arrivals == nil {
			l.arrivals = map[Lock][]Op{}
		}
		l.arrivals[op.M] = append(l.arrivals[op.M], op)
		if len(l.arrivals[op.M]) == n {
			// Complete round: every participant releases, then every
			// participant acquires, a fresh round lock. Serializing
			// through one lock creates the all-pairs ordering a barrier
			// provides.
			round := l.alloc(classBarrier, int32(op.M))
			for _, a := range l.arrivals[op.M] {
				pair(emit, a, round)
			}
			for _, a := range l.arrivals[op.M] {
				pair(emit, a, round)
			}
			l.arrivals[op.M] = nil
		}
	case AtomicLoad, AtomicStore, AtomicRMW:
		pair(emit, op, l.alloc(classAtomic, int32(op.X)))
	case OnceDo:
		pair(emit, op, l.alloc(classOnce, int32(op.M)))
	case ChanSend:
		st := l.chanFor(op.M)
		if st.closed {
			return // infeasible; the validator rejects it
		}
		c := l.ext.Capacity(op.M)
		if c > 0 && st.sends-st.recvs < c && len(st.blocked) == 0 {
			pair(emit, op, l.alloc(classChanSlot+int32(st.sends%c), int32(op.M)))
			st.sends++
		} else {
			st.blocked = append(st.blocked, op)
		}
	case ChanRecv:
		st := l.chanFor(op.M)
		c := l.ext.Capacity(op.M)
		switch {
		case c > 0 && st.sends-st.recvs > 0:
			// Take the oldest buffered value from its slot, then let the
			// oldest blocked sender (if any) complete into the slot just
			// freed — its completion happens-after this receive, the
			// recv_k → send_{k+C} edge.
			pair(emit, op, l.alloc(classChanSlot+int32(st.recvs%c), int32(op.M)))
			st.recvs++
			if len(st.blocked) > 0 {
				s := st.blocked[0]
				st.blocked = st.blocked[1:]
				pair(emit, s, l.alloc(classChanSlot+int32(st.sends%c), int32(op.M)))
				st.sends++
			}
		case len(st.blocked) > 0:
			// Unbuffered rendezvous: the blocked sender completes here.
			// Double round on the rendezvous lock, sender first — after
			// it each party holds the other's clock, the bidirectional
			// ordering of an unbuffered exchange.
			s := st.blocked[0]
			st.blocked = st.blocked[1:]
			r := l.alloc(classChanRendz, int32(op.M))
			pair(emit, s, r)
			pair(emit, op, r)
			pair(emit, s, r)
			pair(emit, op, r)
			st.sends++
			st.recvs++
		case st.closed:
			// Zero-value receive: ordered after the close, nothing else.
			pair(emit, op, l.alloc(classChanClose, int32(op.M)))
		default:
			// Receive with nothing to receive: infeasible; dropped.
		}
	case ChanClose:
		st := l.chanFor(op.M)
		if st.closed || len(st.blocked) > 0 {
			return // infeasible; the validator rejects it
		}
		st.closed = true
		pair(emit, op, l.alloc(classChanClose, int32(op.M)))
	default:
		emit(op)
	}
}
