package trace

import "repro/internal/epoch"

// Pseudo-locks: every extended operation lowers onto acquire/release
// pairs of pseudo-locks drawn from one first-use-ordered allocation
// sequence, one lock per synchronization object — per volatile variable,
// barrier, atomic location and once id (objectLock), and per channel a
// close lock, a rendezvous lock and one lock per buffer slot (chanLock) —
// so distinct objects never share a lock. What is observable is only that
// one object maps to one lock and the allocation order is the order of
// first use, which is what keeps the dense (slice Desugar) and parity
// (streaming) numberings bijective.
const (
	objVolatile = iota // by volatile variable
	objBarrier         // by barrier (one round lock, reused)
	objAtomic          // by atomic location
	objOnce            // by once id
	numObjects
)

// A channel's pseudo-locks, by index into chanState.locks.
const (
	chanCloseLock = iota // close → zero-value receives
	chanRendzLock        // unbuffered rendezvous
	chanSlotLock         // + slot: the buffer ring
)

// Pair is the unit every extended operation lowers to: thread T acquires
// lock M and then releases it.
type Pair struct {
	T epoch.Tid
	M Lock
}

// Lowerer is the incremental §7 lowering of the extended trace language
// onto the six-kind core, shared by Trace.Desugar, DesugarSource and the
// offline check path so they cannot drift. Feed it raw operations in trace
// order through Lower, which calls emit zero or more times per op with the
// lowered core operations — or, from a path that switches on the kind
// itself, pass the core kinds straight through (acquire and release with
// Real applied) and hand only the extended kinds to AppendSync and
// AppendChan, which Lower calls.
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
//     blocks: its lowering is emitted at the matching receive. Sends still
//     blocked at end of input are dropped, like incomplete barrier rounds.
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
	ext *Extensions

	// The id discipline: real lock m lowers to realScale·m, and the k-th
	// pseudo-lock (first-use order) to pseudoBase + pseudoScale·k.
	realScale, pseudoBase, pseudoScale Lock
	npseudo                            Lock // pseudo-locks allocated so far

	objects  [numObjects]lockTable // object id → pseudo-lock, per kind of object
	arrivals map[Lock][]epoch.Tid  // threads in the current round, per barrier
	chans    chanTable             // channel state, for Lower
	pairs    []Pair                // Lower's scratch
}

// lockTable maps object ids to pseudo-locks, held +1 so that zero is "not
// yet": a slice for ids in [0, denseIDs), a map beyond, so a huge
// id costs a map entry and not a huge slice.
type lockTable struct {
	dense  []Lock
	sparse map[int32]Lock
}

// NewParityLowerer returns a Lowerer with the streaming id discipline: a
// real lock m maps to 2m and the k-th pseudo-lock (first-use order) to
// 2k+1, so the two spaces cannot collide without a whole-trace pre-scan.
func NewParityLowerer(ext *Extensions) *Lowerer {
	return &Lowerer{ext: ext, realScale: 2, pseudoBase: 1, pseudoScale: 2}
}

// NewDenseLowerer returns a Lowerer with the slice Desugar id discipline:
// real locks keep their ids and pseudo-locks are numbered densely from
// next (which must exceed every real lock id in the input).
func NewDenseLowerer(ext *Extensions, next Lock) *Lowerer {
	return &Lowerer{ext: ext, realScale: 1, pseudoBase: next, pseudoScale: 1}
}

// Real returns the lowered id of real lock m.
func (l *Lowerer) Real(m Lock) Lock { return l.realScale * m }

// next allocates the next pseudo-lock.
func (l *Lowerer) next() Lock {
	m := l.pseudoBase + l.pseudoScale*l.npseudo
	l.npseudo++
	return m
}

// objectLock returns the pseudo-lock of object id of the given kind,
// allocating it on first use.
func (l *Lowerer) objectLock(kind int, id int32) Lock {
	t := &l.objects[kind]
	if uint32(id) < uint32(len(t.dense)) && t.dense[id] != 0 {
		return t.dense[id] - 1
	}
	if uint32(id) >= denseIDs {
		m, ok := t.sparse[id]
		if !ok {
			if t.sparse == nil {
				t.sparse = map[int32]Lock{}
			}
			m = l.next() + 1
			t.sparse[id] = m
		}
		return m - 1
	}
	for int(id) >= len(t.dense) {
		t.dense = append(t.dense, 0)
	}
	t.dense[id] = l.next() + 1
	return t.dense[id] - 1
}

// chanLock returns channel lock i (chanCloseLock, ...) of st, allocating
// it on first use. The channel's record keeps them: the one the validator
// keeps, when the lowering follows a Validator.
func (l *Lowerer) chanLock(st *chanState, i int) Lock {
	for i >= len(st.locks) {
		st.locks = append(st.locks, 0)
	}
	if st.locks[i] == 0 {
		st.locks[i] = l.next() + 1
	}
	return st.locks[i] - 1
}

// Lower feeds one raw operation through the lowering, emitting its core
// form. Core operations pass through (acquire/release with the real-lock
// remap applied); extended operations expand to zero or more core ops.
func (l *Lowerer) Lower(op Op, emit func(Op)) {
	switch op.Kind {
	case Acquire:
		emit(Acq(op.T, l.Real(op.M)))
		return
	case Release:
		emit(Rel(op.T, l.Real(op.M)))
		return
	case ChanSend, ChanRecv, ChanClose:
		s, why := l.chans.get(op.M, l.ext).step(op)
		if why != "" {
			return // infeasible; the validator rejects it
		}
		l.pairs = l.AppendChan(l.pairs[:0], op, s)
	case VolatileRead, VolatileWrite, Barrier, AtomicLoad, AtomicStore, AtomicRMW, OnceDo:
		l.pairs = l.AppendSync(l.pairs[:0], op)
	default:
		emit(op)
		return
	}
	for _, p := range l.pairs {
		emit(Acq(p.T, p.M))
		emit(Rel(p.T, p.M))
	}
}

// AppendSync appends the lowering of a volatile, barrier, atomic or once
// op to dst.
func (l *Lowerer) AppendSync(dst []Pair, op Op) []Pair {
	switch op.Kind {
	case VolatileRead, VolatileWrite:
		dst = append(dst, Pair{op.T, l.objectLock(objVolatile, int32(op.X))})
	case Barrier:
		n := l.ext.Parties(op.M)
		if l.arrivals == nil {
			l.arrivals = map[Lock][]epoch.Tid{}
		}
		round := append(l.arrivals[op.M], op.T)
		if len(round) < n {
			l.arrivals[op.M] = round
			break
		}
		// Complete round: every participant releases, then every
		// participant acquires, a fresh round lock. Serializing through one
		// lock creates the all-pairs ordering a barrier provides.
		m := l.objectLock(objBarrier, int32(op.M))
		for range 2 {
			for _, t := range round {
				dst = append(dst, Pair{t, m})
			}
		}
		l.arrivals[op.M] = round[:0]
	case AtomicLoad, AtomicStore, AtomicRMW:
		dst = append(dst, Pair{op.T, l.objectLock(objAtomic, int32(op.X))})
	case OnceDo:
		dst = append(dst, Pair{op.T, l.objectLock(objOnce, int32(op.M))})
	}
	return dst
}

// AppendChan appends the lowering of a send, receive or close to dst,
// given what the op did to its channel (Validator.Chan's step).
func (l *Lowerer) AppendChan(dst []Pair, op Op, s ChanStep) []Pair {
	switch s.what {
	case chanSlot:
		// A receive takes the oldest buffered value from its slot, then
		// lets the oldest blocked sender (if any) complete into the slot
		// just freed — its completion happens-after this receive, the
		// recv_k → send_{k+C} edge.
		dst = append(dst, Pair{op.T, l.chanLock(s.ch, chanSlotLock+int(s.slot))})
		if s.woke {
			dst = append(dst, Pair{s.sender, l.chanLock(s.ch, chanSlotLock+int(s.senderSlot))})
		}
	case chanRendezvous:
		// Double round on the rendezvous lock, sender first — after it
		// each party holds the other's clock, the bidirectional ordering
		// of an unbuffered exchange.
		r := l.chanLock(s.ch, chanRendzLock)
		dst = append(dst, Pair{s.sender, r}, Pair{op.T, r}, Pair{s.sender, r}, Pair{op.T, r})
	case chanZero, chanClosed:
		// A zero-value receive is ordered after the close, nothing else.
		dst = append(dst, Pair{op.T, l.chanLock(s.ch, chanCloseLock)})
	}
	return dst
}
