package rt

// This file is the rewriter's vocabulary: every call internal/goinstr can
// generate lives here. The generic access wrappers keep the rewritten
// source type-correct without the rewriter knowing anything about the
// accessed type; instantiation happens in the shadow-module build.
//
// Conventions shared by all wrappers:
//
//   - g is the *G bound once per instrumented function (__vft.Bind()).
//   - site is a stable human-readable name for the accessed object — the
//     rewriter passes the declaration site for variables ("counter
//     main.go:7:6"), so every access to one object carries one name and
//     the meta sidecar can render reports identically across runs.
//   - wrappers always perform the underlying operation, so an
//     instrumented program with capture disabled behaves identically.

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// addrOf and ptr produce the interning key for a traced object. Both
// stay in unsafe.Pointer form end to end — never uintptr — so the
// pointer remains visible to escape analysis and the GC: storing it in
// the id tables heap-allocates the object and pins it, which is what
// keeps ids stable across stack growth and address reuse (see the
// package comment).
func addrOf(p any) unsafe.Pointer {
	return reflect.ValueOf(p).UnsafePointer()
}

func ptr[T any](p *T) unsafe.Pointer { return unsafe.Pointer(p) }

// Rd logs a read of *p and returns it. The rewriter maps a value-context
// use of an addressable shared expression e to Rd(g, site, &e), and a
// pointer dereference *q to Rd(g, site, q).
func Rd[T any](g *G, site string, p *T) T {
	read(g, site, ptr(p))
	return *p
}

// Wr logs a write to *p and returns p; the rewriter maps e = rhs to
// *Wr(g, site, &e) = rhs, preserving single evaluation of e's operands.
func Wr[T any](g *G, site string, p *T) *T {
	write(g, site, ptr(p))
	return p
}

// RdWr logs a read followed by a write — the access pair of e++, e-- and
// e op= rhs — and returns p.
func RdWr[T any](g *G, site string, p *T) *T {
	st.mu.Lock()
	id := idFor(st.vars, st.varNames, ptr(p), site)
	st.emitLocked(kRead, g.tid, uint32(id))
	st.emitLocked(kWrite, g.tid, uint32(id))
	st.mu.Unlock()
	return p
}

// WrAddr is the statement-level fallback for l-value shapes the rewriter
// does not model precisely: it prepends a whole-object write through any
// pointer. p must be a pointer.
func WrAddr(g *G, site string, p any) { write(g, site, addrOf(p)) }

// Map accesses: map elements are not addressable, so the map header
// pointer itself is the traced variable — a whole-map granularity that
// cannot miss a map race (any two accesses to one map conflict) at the
// cost of index-insensitivity, matching how the Go runtime's own map
// race instrumentation hashes the header.

func mapAddr(m any) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }

// MapRd logs a read of m and returns m[k].
func MapRd[K comparable, V any](g *G, site string, m map[K]V, k K) V {
	read(g, site, mapAddr(m))
	return m[k]
}

// MapRd2 is MapRd for the comma-ok form.
func MapRd2[K comparable, V any](g *G, site string, m map[K]V, k K) (V, bool) {
	read(g, site, mapAddr(m))
	v, ok := m[k]
	return v, ok
}

// MapWr logs a write of m and performs m[k] = v.
func MapWr[K comparable, V any](g *G, site string, m map[K]V, k K, v V) {
	write(g, site, mapAddr(m))
	m[k] = v
}

// MapDel logs a write of m and performs delete(m, k).
func MapDel[K comparable, V any](g *G, site string, m map[K]V, k K) {
	write(g, site, mapAddr(m))
	delete(m, k)
}

// MapRange logs a read of m and returns it; the rewriter wraps the range
// operand: for k, v := range MapRange(g, site, m).
func MapRange[K comparable, V any](g *G, site string, m map[K]V) map[K]V {
	read(g, site, mapAddr(m))
	return m
}

// Channel operations. Send logs at initiation (before the real send);
// Recv/Recv2 log at completion, gated by the per-channel gadget; see the
// package comment for why this ordering keeps the stream feasible.

// Send performs c <- v. The send event enters the stream before the real
// send, and the sender's next event waits (log-side) until the log-level
// channel has room — the validator's blocked-sender rule.
func Send[T any](g *G, site string, c chan<- T, v T) {
	if !capturing() {
		c <- v
		return
	}
	cs := chanFor(c, site)
	k := cs.sendInit(g)
	c <- v
	cs.sendSettle(k)
}

// Recv performs <-c. Go's plain receive cannot tell a sent zero value
// from a closed channel, so the gadget classifies by log-level state
// (recvUnknown).
func Recv[T any](g *G, site string, c <-chan T) T {
	if !capturing() {
		return <-c
	}
	cs := chanFor(c, site)
	v := <-c
	cs.recvDone(g, recvUnknown)
	return v
}

// Recv2 performs v, ok := <-c; ok picks the exact receive class.
func Recv2[T any](g *G, site string, c <-chan T) (T, bool) {
	if !capturing() {
		v, ok := <-c
		return v, ok
	}
	cs := chanFor(c, site)
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
func CloseChan[T any](g *G, site string, c chan<- T) {
	close(c)
	if capturing() {
		chanFor(c, site).closeDone(g)
	}
}

// Select-path wrappers: a select statement chooses its communication
// dynamically, so the rewriter logs in the chosen case's body, after the
// fact. c is the channel, boxed (any direction).

// SendSel logs a select-chosen send; dropped (and counted) if it would
// land after a logged close.
func SendSel(g *G, site string, c any) {
	if capturing() {
		chanFor(c, site).sendSelDone(g)
	}
}

// RecvSel logs a select-chosen receive without an ok variable.
func RecvSel(g *G, site string, c any) {
	if capturing() {
		chanFor(c, site).recvDone(g, recvUnknown)
	}
}

// RecvSelOK logs a select-chosen comma-ok receive.
func RecvSelOK(g *G, site string, c any, ok bool) {
	if !capturing() {
		return
	}
	cls := recvZero
	if ok {
		cls = recvValue
	}
	chanFor(c, site).recvDone(g, cls)
}

func capturing() bool {
	st.mu.Lock()
	a := st.active
	st.mu.Unlock()
	return a
}

// sync/atomic, function style. An atomic location gets its own id space
// (the lowering keys pseudo-locks by class, so atomic ids never collide
// with variable or lock ids). Loads are acquire-like and log after the
// operation; stores and RMWs are release-like and log before, so the
// pseudo-lock chain runs writer → reader. A failed CompareAndSwap is
// still logged as an RMW — a harmless over-approximation that can only
// add happens-before edges between operations that really executed.

func ALoadInt32(g *G, site string, p *int32) int32 {
	v := atomic.LoadInt32(p)
	emitAtomic(g, kAtomicLoad, ptr(p), site)
	return v
}

func ALoadInt64(g *G, site string, p *int64) int64 {
	v := atomic.LoadInt64(p)
	emitAtomic(g, kAtomicLoad, ptr(p), site)
	return v
}

func ALoadUint32(g *G, site string, p *uint32) uint32 {
	v := atomic.LoadUint32(p)
	emitAtomic(g, kAtomicLoad, ptr(p), site)
	return v
}

func ALoadUint64(g *G, site string, p *uint64) uint64 {
	v := atomic.LoadUint64(p)
	emitAtomic(g, kAtomicLoad, ptr(p), site)
	return v
}

func AStoreInt32(g *G, site string, p *int32, v int32) {
	emitAtomic(g, kAtomicStore, ptr(p), site)
	atomic.StoreInt32(p, v)
}

func AStoreInt64(g *G, site string, p *int64, v int64) {
	emitAtomic(g, kAtomicStore, ptr(p), site)
	atomic.StoreInt64(p, v)
}

func AStoreUint32(g *G, site string, p *uint32, v uint32) {
	emitAtomic(g, kAtomicStore, ptr(p), site)
	atomic.StoreUint32(p, v)
}

func AStoreUint64(g *G, site string, p *uint64, v uint64) {
	emitAtomic(g, kAtomicStore, ptr(p), site)
	atomic.StoreUint64(p, v)
}

func AAddInt32(g *G, site string, p *int32, d int32) int32 {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.AddInt32(p, d)
}

func AAddInt64(g *G, site string, p *int64, d int64) int64 {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.AddInt64(p, d)
}

func AAddUint32(g *G, site string, p *uint32, d uint32) uint32 {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.AddUint32(p, d)
}

func AAddUint64(g *G, site string, p *uint64, d uint64) uint64 {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.AddUint64(p, d)
}

func ASwapInt32(g *G, site string, p *int32, v int32) int32 {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.SwapInt32(p, v)
}

func ASwapInt64(g *G, site string, p *int64, v int64) int64 {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.SwapInt64(p, v)
}

func ACASInt32(g *G, site string, p *int32, old, new int32) bool {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.CompareAndSwapInt32(p, old, new)
}

func ACASInt64(g *G, site string, p *int64, old, new int64) bool {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.CompareAndSwapInt64(p, old, new)
}

func ACASUint32(g *G, site string, p *uint32, old, new uint32) bool {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.CompareAndSwapUint32(p, old, new)
}

func ACASUint64(g *G, site string, p *uint64, old, new uint64) bool {
	emitAtomic(g, kAtomicRMW, ptr(p), site)
	return atomic.CompareAndSwapUint64(p, old, new)
}

// sync/atomic, typed style (atomic.Int32 &c.). Same discipline.

func TLoadInt32(g *G, site string, a *atomic.Int32) int32 {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func TLoadInt64(g *G, site string, a *atomic.Int64) int64 {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func TLoadUint32(g *G, site string, a *atomic.Uint32) uint32 {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func TLoadUint64(g *G, site string, a *atomic.Uint64) uint64 {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func TLoadBool(g *G, site string, a *atomic.Bool) bool {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func TStoreInt32(g *G, site string, a *atomic.Int32, v int32) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}

func TStoreInt64(g *G, site string, a *atomic.Int64, v int64) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}

func TStoreUint32(g *G, site string, a *atomic.Uint32, v uint32) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}

func TStoreUint64(g *G, site string, a *atomic.Uint64, v uint64) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}

func TStoreBool(g *G, site string, a *atomic.Bool, v bool) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}

func TAddInt32(g *G, site string, a *atomic.Int32, d int32) int32 {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Add(d)
}

func TAddInt64(g *G, site string, a *atomic.Int64, d int64) int64 {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Add(d)
}

func TAddUint32(g *G, site string, a *atomic.Uint32, d uint32) uint32 {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Add(d)
}

func TAddUint64(g *G, site string, a *atomic.Uint64, d uint64) uint64 {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Add(d)
}

func TCASInt32(g *G, site string, a *atomic.Int32, old, new int32) bool {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.CompareAndSwap(old, new)
}

func TCASInt64(g *G, site string, a *atomic.Int64, old, new int64) bool {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.CompareAndSwap(old, new)
}

func TCASBool(g *G, site string, a *atomic.Bool, old, new bool) bool {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.CompareAndSwap(old, new)
}

func TSwapInt32(g *G, site string, a *atomic.Int32, v int32) int32 {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Swap(v)
}

func TSwapInt64(g *G, site string, a *atomic.Int64, v int64) int64 {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Swap(v)
}

func TSwapBool(g *G, site string, a *atomic.Bool, v bool) bool {
	emitAtomic(g, kAtomicRMW, ptr(a), site)
	return a.Swap(v)
}

// atomic.Value and atomic.Pointer[T].

func VLoad(g *G, site string, a *atomic.Value) any {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func VStore(g *G, site string, a *atomic.Value, v any) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}

func PLoad[T any](g *G, site string, a *atomic.Pointer[T]) *T {
	v := a.Load()
	emitAtomic(g, kAtomicLoad, ptr(a), site)
	return v
}

func PStore[T any](g *G, site string, a *atomic.Pointer[T], v *T) {
	emitAtomic(g, kAtomicStore, ptr(a), site)
	a.Store(v)
}
