package trace

import (
	"fmt"

	"repro/internal/epoch"
)

// chanState is one channel under the Go rules: what constraint (6) checks
// and what the §7 channel lowering orders by. The validator and the
// lowerer each keep a table of these when they run alone; a check path
// that validates and then lowers every op keeps only the validator's and
// hands each op's ChanStep to the lowerer (Validator.Chan,
// Lowerer.AppendChan).
type chanState struct {
	cap     int // buffer capacity, from Extensions at first use
	sends   int // completed sends (value entered the buffer or rendezvoused)
	recvs   int // completed receives
	closed  bool
	blocked []epoch.Tid // blocked senders, FIFO arrival order
	locks   []Lock      // the lowering's pseudo-locks, +1 (Lowerer.chanLock)

	// The buffer slots the next send and the next receive of a buffered
	// value use: sends and recvs mod cap, kept without dividing.
	sendSlot, recvSlot int
}

// nextSlot returns *slot and advances it around the ring of c slots.
func nextSlot(slot *int, c int) int32 {
	k := int32(*slot)
	if *slot++; *slot == c {
		*slot = 0
	}
	return k
}

// chanOutcome says what a channel op did.
type chanOutcome uint8

const (
	chanBlocked    chanOutcome = iota // send with no room: the sender waits for a receive
	chanSlot                          // send or receive through buffer slot ChanStep.slot
	chanRendezvous                    // receive completing a blocked send on an unbuffered channel
	chanZero                          // receive of the zero value from a closed, drained channel
	chanClosed                        // close
)

// ChanStep is what one channel operation did to its channel: the record
// Validator.Chan returns and Lowerer.AppendChan lowers.
type ChanStep struct {
	ch         *chanState
	what       chanOutcome
	woke       bool      // a receive completed the oldest blocked send...
	sender     epoch.Tid // ...of this thread...
	senderSlot int32     // ...into this slot (chanSlot; a rendezvous has none)
	slot       int32     // the op's buffer slot (chanSlot)
}

// channel returns channel c's state in t, allocating it on first use.
func channel(t *IDTable[Lock, *chanState], c Lock, ext *Extensions) *chanState {
	st := t.Get(c)
	if st == nil {
		st = &chanState{cap: ext.Capacity(c)}
		t.Set(c, st, denseIDs)
	}
	return st
}

// step applies a send, receive or close to the channel under the Go rules
// and says what happened. An op the rules forbid leaves the channel as it
// was and comes back with the reason, which is constraint (6)'s message.
//
// A send completes into the buffer when there is room and nobody is
// queued ahead of it; otherwise it blocks. A receive takes the oldest
// buffered value and lets the oldest blocked sender complete into the slot
// it freed, or on an unbuffered channel completes the oldest blocked send
// as a rendezvous, or on a closed, drained channel yields the zero value
// (consuming no sequence number). A close needs an open channel with no
// blocked senders.
func (st *chanState) step(op Op) (ChanStep, string) {
	s := ChanStep{ch: st}
	switch op.Kind {
	case ChanSend:
		if st.closed {
			return s, fmt.Sprintf("send on closed channel c%d", op.M)
		}
		if st.cap > 0 && st.sends-st.recvs < st.cap && len(st.blocked) == 0 {
			s.what, s.slot = chanSlot, nextSlot(&st.sendSlot, st.cap)
			st.sends++
		} else {
			s.what = chanBlocked
			st.blocked = append(st.blocked, op.T)
		}
	case ChanRecv:
		switch {
		case st.sends-st.recvs > 0:
			// Only a buffered channel holds values: on an unbuffered one
			// every completed send was completed by its receive.
			s.what, s.slot = chanSlot, nextSlot(&st.recvSlot, st.cap)
			st.recvs++
			if len(st.blocked) > 0 {
				s.woke, s.sender, s.senderSlot = true, st.blocked[0], nextSlot(&st.sendSlot, st.cap)
				st.blocked = st.blocked[1:]
				st.sends++
			}
		case len(st.blocked) > 0:
			s.what, s.woke, s.sender = chanRendezvous, true, st.blocked[0]
			st.blocked = st.blocked[1:]
			st.sends++
			st.recvs++
		case st.closed:
			s.what = chanZero
		default:
			return s, fmt.Sprintf("receive on channel c%d before any send (nothing buffered, no blocked sender, not closed)", op.M)
		}
	case ChanClose:
		if st.closed {
			return s, fmt.Sprintf("close of closed channel c%d", op.M)
		}
		if len(st.blocked) > 0 {
			return s, fmt.Sprintf("close of channel c%d with %d blocked senders", op.M, len(st.blocked))
		}
		st.closed = true
		s.what = chanClosed
	}
	return s, ""
}
