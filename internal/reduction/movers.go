// Package reduction is the executable stand-in for the paper's CIVL
// verification (§6). CIVL proves two theorems about the VerifiedFT-v2 event
// handlers:
//
//  1. serializability — every handler reduces to an atomic action under
//     Lipton's theory (§4-5): each execution path's sequence of mover
//     labels matches (B|R)*[N](B|L)*, with pure blocks treated as both-
//     movers; and
//  2. functional correctness — the handler's atomic effect is exactly one
//     of the Fig. 2 analysis rules.
//
// Re-implementing a Boogie-based deductive verifier is out of scope;
// instead this package checks the same two theorems executably, on the
// handlers that ship rather than on a transcription of them:
//
//   - explore.go (built with the vftmc tag, which turns every shared
//     action of a core VarState into a scheduling point) runs every
//     interleaving of two and three real core Read/Write calls over a
//     small shadow state, and checks that each interleaving's final state
//     and rules equal those of some serial order (serializability), and
//     that the serial semantics matches the Fig. 2 specification;
//   - movers.go/pattern.go: each action sequence the explorer recorded is
//     labelled by a mover classification *derived from the
//     synchronization discipline* (e.g. "read of sx.W while holding sx" ⇒
//     both-mover, "unlocked read of sx.W" ⇒ non-mover) and checked
//     against the reduction pattern.
//
// Run it with `go test -tags vftmc ./internal/reduction`; the untagged
// test suite runs that command as a child process.
package reduction

import "fmt"

// Mover is Lipton's commuting classification of a primitive action (§4).
type Mover uint8

const (
	// B commutes both ways against concurrent threads' actions.
	B Mover = iota
	// R right-commutes (e.g. lock acquire).
	R
	// L left-commutes (e.g. lock release).
	L
	// N is a single non-mover atomic action.
	N
)

func (m Mover) String() string {
	return [...]string{"B", "R", "L", "N"}[m]
}

// Action is one labeled primitive step of a handler path.
type Action struct {
	Mover Mover
	// Pure marks actions inside a pure block (§5): a normally-terminating
	// pure block does not change state, so for reduction it collapses to
	// a both-mover; a pure block through which the handler *returns*
	// keeps its labels and must reduce on its own.
	Pure bool
	// Desc names the step for diagnostics, e.g. "read sx.W (locked)".
	Desc string
}

// Path is one execution path through a handler: an ordered list of labeled
// actions plus whether the path returns from inside the pure block.
type Path struct {
	Handler string
	Name    string // e.g. "read: [Read Same Epoch] fast path"
	// ReturnsInPure marks fast paths that exit inside the pure block.
	ReturnsInPure bool
	Actions       []Action
}

// String renders the path's mover string, e.g. "BBRN(B)L".
func (p Path) String() string {
	s := ""
	for _, a := range p.Actions {
		if a.Pure {
			s += "(" + a.Mover.String() + ")"
		} else {
			s += a.Mover.String()
		}
	}
	return fmt.Sprintf("%s/%s: %s", p.Handler, p.Name, s)
}

// The synchronization discipline of §5, encoded as classification
// functions. Each returns the mover label for an access to the named
// location under the given lock/phase context, exactly following the
// discipline's case analysis.

// ClassifyW classifies an access to sx.W (write-protected by sx).
func ClassifyW(write, locked bool) Mover {
	switch {
	case write && locked:
		// Lock-protected writes are non-movers: unprotected concurrent
		// reads exist.
		return N
	case write && !locked:
		panic("reduction: the discipline forbids unlocked writes to sx.W")
	case locked:
		// Lock-protected reads are both-movers: the lock excludes writers.
		return B
	default:
		// Unprotected reads are non-movers.
		return N
	}
}

// ClassifyR classifies an access to sx.R (write-protected by sx; immutable
// once Shared). readShared reports whether the value read is Shared.
func ClassifyR(write, locked, readShared bool) Mover {
	switch {
	case write && locked:
		return N
	case write && !locked:
		panic("reduction: the discipline forbids unlocked writes to sx.R")
	case locked:
		return B
	case readShared:
		// Reading Shared (even unlocked) right-commutes: R is immutable
		// once Shared, so no later write can invalidate the read.
		return R
	default:
		return N
	}
}

// ClassifyVPointer classifies an access to sx.V itself — the array
// reference, replaced on resize (§5's sx.V case). Protected by sx while
// unshared; write-protected by sx once Shared: "unprotected reads are
// non-movers (N), protected reads are both-movers (B), and protected writes
// are non-movers (N)".
func ClassifyVPointer(write, locked, shared bool) Mover {
	switch {
	case !shared:
		if !locked {
			panic("reduction: unlocked sx.V access while unshared")
		}
		return B
	case write:
		if !locked {
			panic("reduction: unlocked write to sx.V")
		}
		return N
	case locked:
		return B
	default:
		return N
	}
}

// ClassifyVEntry classifies an access to one element sx.V[t] (§5's sx.V[t]
// case): readable by any lock holder or by thread t without the lock once
// Shared; writable only by thread t holding the lock. "Under this
// discipline, all accesses are race free and thus both-movers (B)."
func ClassifyVEntry(write, locked, shared, ownEntry bool) Mover {
	switch {
	case !shared:
		if !locked {
			panic("reduction: unlocked sx.V[t] access while unshared")
		}
		return B
	case write:
		if !locked || !ownEntry {
			panic("reduction: sx.V[t] writable only by t under the lock")
		}
		return B
	case locked || ownEntry:
		return B
	default:
		panic("reduction: unlocked read of another thread's sx.V entry")
	}
}

// ClassifyLock returns the mover for lock operations.
func ClassifyLock(acquire bool) Mover {
	if acquire {
		return R
	}
	return L
}
