package rt

// This file is the rewriter's vocabulary: every call internal/goinstr can
// generate lives here. The generic access wrappers keep the rewritten
// source type-correct without the rewriter knowing anything about the
// accessed type; instantiation happens in the shadow-module build.
//
// Conventions shared by all wrappers:
//
//   - g is the *G bound once per instrumented function (__vft.Bind()).
//   - site, which only the variable wrappers (Rd, Wr, RdWr, WrAddr and
//     the Map family) take, is a stable human-readable name for the
//     accessed variable — the rewriter passes its declaration site
//     ("counter main.go:7:6"), so every access to one variable carries
//     one name and the meta sidecar can render reports identically across
//     runs. Locks, atomics, onces and channels are never reported on, so
//     their wrappers take no name.
//   - wrappers always perform the underlying operation, so an
//     instrumented program with capture disabled behaves identically.
//   - an atomic logs by its shape: a load after the operation; a store,
//     a read-modify-write (Add, And, Or, Swap) and a CompareAndSwap
//     before it. The operation's arguments are the wrapper's own
//     parameters, so an access inside them is logged before the atomic
//     record. Locks and channels follow the same rule — acquire-like
//     after, release-like before — as the package comment details.

import (
	"reflect"
	"unsafe"

	"repro/internal/trace"
)

// addrOf and ptr produce the interning key for a traced object: addrOf,
// through reflect, for a map, WrAddr's pointer and the receivers of the
// generic method wrappers; ptr for a typed pointer, as the sync wrappers
// in rt.go convert theirs. Both stay in unsafe.Pointer form end to end —
// never uintptr — so the pointer remains visible to escape analysis and
// the GC: storing it in the id tables heap-allocates the object and pins
// it, which is what keeps ids stable across stack growth and address
// reuse (see the package comment).
func addrOf(p any) unsafe.Pointer {
	return reflect.ValueOf(p).UnsafePointer()
}

func ptr[T any](p *T) unsafe.Pointer { return unsafe.Pointer(p) }

// Rd logs a read of *p and returns it. The rewriter maps a value-context
// use of an addressable shared expression e to Rd(g, site, &e), and a
// pointer dereference *q to Rd(g, site, q).
func Rd[T any](g *G, site string, p *T) T {
	emitVar(trace.Read, g, site, ptr(p))
	return *p
}

// Wr logs a write to *p and returns p; the rewriter maps e = rhs to
// *Wr(g, site, &e) = rhs, preserving single evaluation of e's operands.
func Wr[T any](g *G, site string, p *T) *T {
	emitVar(trace.Write, g, site, ptr(p))
	return p
}

// RdWr logs a read followed by a write — the access pair of e++, e-- and
// e op= rhs — and returns p.
func RdWr[T any](g *G, site string, p *T) *T {
	st.mu.Lock()
	if st.capturingLocked() {
		id := st.varID(ptr(p), site)
		st.emitLocked(trace.Read, g.tid, id)
		st.emitLocked(trace.Write, g.tid, id)
	}
	st.mu.Unlock()
	return p
}

// WrAddr is the statement-level fallback for l-value shapes the rewriter
// does not model precisely: it prepends a whole-object write through any
// pointer. p must be a pointer.
func WrAddr(g *G, site string, p any) { emitVar(trace.Write, g, site, addrOf(p)) }

// Map accesses: map elements are not addressable, so the map header
// pointer itself is the traced variable — a whole-map granularity that
// cannot miss a map race (any two accesses to one map conflict) at the
// cost of index-insensitivity, matching how the Go runtime's own map
// race instrumentation hashes the header.

// MapRd logs a read of m and returns m[k].
func MapRd[K comparable, V any](g *G, site string, m map[K]V, k K) V {
	emitVar(trace.Read, g, site, addrOf(m))
	return m[k]
}

// MapRd2 is MapRd for the comma-ok form.
func MapRd2[K comparable, V any](g *G, site string, m map[K]V, k K) (V, bool) {
	emitVar(trace.Read, g, site, addrOf(m))
	v, ok := m[k]
	return v, ok
}

// MapWr logs a write of m and performs m[k] = v.
func MapWr[K comparable, V any](g *G, site string, m map[K]V, k K, v V) {
	emitVar(trace.Write, g, site, addrOf(m))
	m[k] = v
}

// MapDel logs a write of m and performs delete(m, k).
func MapDel[K comparable, V any](g *G, site string, m map[K]V, k K) {
	emitVar(trace.Write, g, site, addrOf(m))
	delete(m, k)
}

// MapRange logs a read of m and returns it; the rewriter wraps the range
// operand: for k, v := range MapRange(g, site, m).
func MapRange[K comparable, V any](g *G, site string, m map[K]V) map[K]V {
	emitVar(trace.Read, g, site, addrOf(m))
	return m
}

// Channel operations. Send logs at initiation (before the real send);
// Recv/Recv2 log at completion, gated by the per-channel gadget; see the
// package comment for why this ordering keeps the stream feasible.

// Send performs c <- v. The send event enters the stream before the real
// send, and the sender's next event waits (log-side) until the log-level
// channel has room — the validator's blocked-sender rule.
func Send[T any](g *G, c chan<- T, v T) {
	if !capturing() {
		c <- v
		return
	}
	cs := chanFor(c)
	k := cs.sendInit(g)
	c <- v
	cs.sendSettle(k)
}

// Recv performs <-c. Go's plain receive cannot tell a sent zero value
// from a closed channel, so the gadget classifies by log-level state
// (recvUnknown).
func Recv[T any](g *G, c <-chan T) T {
	if !capturing() {
		return <-c
	}
	cs := chanFor(c)
	v := <-c
	cs.recvDone(g, recvUnknown)
	return v
}

// Recv2 performs v, ok := <-c; ok picks the exact receive class.
func Recv2[T any](g *G, c <-chan T) (T, bool) {
	if !capturing() {
		v, ok := <-c
		return v, ok
	}
	cs := chanFor(c)
	v, ok := <-c
	if ok {
		cs.recvDone(g, recvValue)
	} else {
		cs.recvDone(g, recvZero)
	}
	return v, ok
}

// CloseChan performs close(c) and logs it once no logged sender is
// blocked at log level.
func CloseChan[T any](g *G, c chan<- T) {
	close(c)
	if capturing() {
		chanFor(c).closeDone(g)
	}
}

// Select-path wrappers: a select statement chooses its communication
// dynamically, so the rewriter logs in the chosen case's body, after the
// fact. c is the channel, boxed (any direction).

// SendSel logs a select-chosen send; dropped (and counted) if it would
// land after a logged close.
func SendSel(g *G, c any) {
	if capturing() {
		chanFor(c).sendSelDone(g)
	}
}

// RecvSel logs a select-chosen receive without an ok variable.
func RecvSel(g *G, c any) {
	if capturing() {
		chanFor(c).recvDone(g, recvUnknown)
	}
}

// RecvSelOK logs a select-chosen comma-ok receive.
func RecvSelOK(g *G, c any, ok bool) {
	if !capturing() {
		return
	}
	cls := recvZero
	if ok {
		cls = recvValue
	}
	chanFor(c).recvDone(g, cls)
}

func capturing() bool {
	st.mu.Lock()
	a := st.capturingLocked()
	st.mu.Unlock()
	return a
}

// sync/atomic. An atomic location gets its own id space (the lowering
// keys pseudo-locks by class, so atomic ids never collide with variable
// or lock ids). A wrapper is picked by what the operation does, never by
// its operand type, and logs as the file header says, so the pseudo-lock
// chain runs writer → reader. A failed CompareAndSwap is still logged as
// an RMW — a harmless over-approximation that can only add
// happens-before edges between operations that really executed.

// Function style: the rewriter passes the original sync/atomic function
// as op, so atomic.AddInt32(p, d) becomes ARMW(g, p, d, atomic.AddInt32)
// and each shape serves every operand type.

// ALoad returns op(p) and logs an atomic load after it.
func ALoad[T any](g *G, p *T, op func(*T) T) T {
	v := op(p)
	emitAtomic(g, trace.AtomicLoad, ptr(p))
	return v
}

// AStore logs an atomic store and performs op(p, v).
func AStore[T any](g *G, p *T, v T, op func(*T, T)) {
	emitAtomic(g, trace.AtomicStore, ptr(p))
	op(p, v)
}

// ARMW logs an atomic read-modify-write and returns op(p, v): Add, And,
// Or and Swap.
func ARMW[T any](g *G, p *T, v T, op func(*T, T) T) T {
	emitAtomic(g, trace.AtomicRMW, ptr(p))
	return op(p, v)
}

// ACAS logs an atomic read-modify-write and returns op(p, old, new).
func ACAS[T any](g *G, p *T, old, new T, op func(*T, T, T) bool) bool {
	emitAtomic(g, trace.AtomicRMW, ptr(p))
	return op(p, old, new)
}

// Method style: one wrapper per method name, over any receiver that has
// the method — atomic.Int32 … Uintptr, Bool, Value and Pointer[T] alike.
// a is the receiver's address, which is also the location's identity.

// TLoad returns a.Load() and logs an atomic load after it.
func TLoad[A interface{ Load() R }, R any](g *G, a A) R {
	v := a.Load()
	emitAtomic(g, trace.AtomicLoad, addrOf(a))
	return v
}

// TStore logs an atomic store and performs a.Store(v).
func TStore[A interface{ Store(R) }, R any](g *G, a A, v R) {
	emitAtomic(g, trace.AtomicStore, addrOf(a))
	a.Store(v)
}

// TAdd logs an atomic read-modify-write and returns a.Add(d).
func TAdd[A interface{ Add(R) R }, R any](g *G, a A, d R) R {
	emitAtomic(g, trace.AtomicRMW, addrOf(a))
	return a.Add(d)
}

// TAnd logs an atomic read-modify-write and returns a.And(mask).
func TAnd[A interface{ And(R) R }, R any](g *G, a A, mask R) R {
	emitAtomic(g, trace.AtomicRMW, addrOf(a))
	return a.And(mask)
}

// TOr logs an atomic read-modify-write and returns a.Or(mask).
func TOr[A interface{ Or(R) R }, R any](g *G, a A, mask R) R {
	emitAtomic(g, trace.AtomicRMW, addrOf(a))
	return a.Or(mask)
}

// TSwap logs an atomic read-modify-write and returns a.Swap(v).
func TSwap[A interface{ Swap(R) R }, R any](g *G, a A, v R) R {
	emitAtomic(g, trace.AtomicRMW, addrOf(a))
	return a.Swap(v)
}

// TCAS logs an atomic read-modify-write and returns
// a.CompareAndSwap(old, new).
func TCAS[A interface{ CompareAndSwap(R, R) bool }, R any](g *G, a A, old, new R) bool {
	emitAtomic(g, trace.AtomicRMW, addrOf(a))
	return a.CompareAndSwap(old, new)
}
