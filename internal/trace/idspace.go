package trace

// IDSpace is the id space a trace's lowered form will touch: one entry per
// thread, data variable and lowered lock id, computed by an O(n) prescan of
// the raw (un-lowered) trace. IDSpace and Scan are read only by
// bench/offline.go (frozen with the benchmark); delete with the next
// `benchmark` PR.
type IDSpace struct {
	// Threads is max(tid)+1 over every acting and forked/joined thread.
	Threads int
	// Vars is max(x)+1 over the data (non-volatile) accesses. Volatile
	// variables do not count: lowering turns them into pseudo-locks.
	Vars int
	// Locks covers the lowered lock id space under DesugarSource's parity
	// mapping: a real lock m becomes 2m and the k-th pseudo-lock (one per
	// distinct volatile variable, barrier, atomic location or once id,
	// and up to 2+capacity per channel) becomes 2k+1. The bound
	// over-approximates when a barrier never completes a round (its
	// pseudo-lock is then never allocated), and under-approximates for
	// channels whose buffer capacity exceeds the assumed single slot lock.
	Locks int
}

// Scan computes the IDSpace of tr.
func Scan(tr Trace) IDSpace {
	maxT, maxX, maxM := -1, -1, -1
	volatiles := map[Var]struct{}{}
	barriers := map[Lock]struct{}{}
	atomics := map[Var]struct{}{}
	onces := map[Lock]struct{}{}
	chans := map[Lock]struct{}{}
	for _, op := range tr {
		if int(op.T) > maxT {
			maxT = int(op.T)
		}
		switch op.Kind {
		case Read, Write:
			if int(op.X) > maxX {
				maxX = int(op.X)
			}
		case Acquire, Release:
			if int(op.M) > maxM {
				maxM = int(op.M)
			}
		case Fork, Join:
			if int(op.U) > maxT {
				maxT = int(op.U)
			}
		case VolatileRead, VolatileWrite:
			volatiles[op.X] = struct{}{}
		case Barrier:
			barriers[op.M] = struct{}{}
		case AtomicLoad, AtomicStore, AtomicRMW:
			atomics[op.X] = struct{}{}
		case OnceDo:
			onces[op.M] = struct{}{}
		case ChanSend, ChanRecv, ChanClose:
			chans[op.M] = struct{}{}
		}
	}
	s := IDSpace{Threads: maxT + 1, Vars: maxX + 1}
	if maxM >= 0 {
		s.Locks = 2*maxM + 1 // real lock m lowers to id 2m
	}
	// Per channel: close lock + rendezvous lock + one assumed slot lock
	// (the capacity is out-of-band).
	pseudo := len(volatiles) + len(barriers) + len(atomics) + len(onces) + 3*len(chans)
	if pseudo > 0 && 2*pseudo > s.Locks {
		s.Locks = 2 * pseudo // k-th pseudo-lock lowers to id 2k+1
	}
	return s
}
