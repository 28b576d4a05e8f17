// Package goid captures the identity of the current goroutine in pure Go.
//
// The Go runtime deliberately hides goroutine ids, so a drop-in
// instrumentation front-end (internal/goinstr) has exactly one portable
// way to get one: parse the "goroutine N [running]:" header that
// runtime.Stack prints. That parse costs microseconds — BenchmarkID read
// 2.7–5.4 µs/op over `go test -run '^$' -bench 'ID$' -count 5
// ./internal/goid` on go1.24.0 with 2 CPUs — far too much to pay per
// traced event, so the package splits identity capture into two layers:
//
//   - ID reads the raw runtime id with a single small runtime.Stack call
//     into a stack buffer (no allocation, no formatting of callers: the
//     header fits in the first few bytes).
//   - Cache is a sharded per-G cache keyed by that id: consumers attach a
//     value (the instrumentation shim attaches its per-goroutine state) on
//     the goroutine's first event and hit the cache on every later one, so
//     the steady-state cost of "who am I" is one ID parse plus one sharded
//     map read. The Go runtime never reuses goroutine ids within a
//     process, so a cache entry can never alias a different goroutine;
//     entries are deleted when the goroutine is known to be done.
//
// The package is dependency-free (stdlib only) on purpose: the
// instrumentation front-end copies its source into the shadow module it
// generates, where no module requirements are available. It is exported
// for future samplers too — a sampling tier that wants per-goroutine
// coin-flip state can hang it off a Cache the same way the shim does.
package goid

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// stackHeader is the prefix runtime.Stack prints before the goroutine id.
const stackHeader = "goroutine "

// stackBufs recycles the tiny header buffers: runtime.Stack's argument
// escapes, so a plain stack array would cost one 64-byte allocation per
// call. The id and the " [" that terminates it always fit in 64 bytes —
// ids are decimal int64s.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// ID returns the runtime id of the calling goroutine, parsed from the
// runtime.Stack header. Steady state it does not allocate (the header
// buffer is pooled); the cost is the runtime.Stack call itself, a few
// microseconds — which is why consumers with per-event needs go through a
// Cache instead of calling ID in a loop per datum.
func ID() int64 {
	buf := stackBufs.Get().(*[64]byte)
	n := runtime.Stack(buf[:], false)
	id := parseHeader(buf[:n])
	stackBufs.Put(buf)
	return id
}

// parseHeader extracts the goroutine id from a runtime.Stack prefix. It
// returns 0 (never a valid goroutine id — the runtime numbers from 1) if
// the buffer does not look like a stack header; split out for testing.
func parseHeader(b []byte) int64 {
	if !bytes.HasPrefix(b, []byte(stackHeader)) {
		return 0
	}
	b = b[len(stackHeader):]
	var id int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// cacheShards is the shard count of Cache; a power of two so the shard
// index is a mask. 64 shards keep unrelated goroutines off each other's
// locks at any realistic concurrency level.
const cacheShards = 64

// Cache is a sharded map from goroutine id to a per-goroutine value — the
// portable stand-in for goroutine-local storage. All methods are safe for
// concurrent use; operations on distinct goroutines mostly touch distinct
// shards and never contend on a global lock.
//
// The zero value is ready to use.
type Cache[T any] struct {
	shards [cacheShards]cacheShard[T]
}

type cacheShard[T any] struct {
	mu sync.RWMutex
	m  map[int64]T
}

func (c *Cache[T]) shard(id int64) *cacheShard[T] {
	return &c.shards[uint64(id)&(cacheShards-1)]
}

// Get returns the value cached for goroutine id, if any.
func (c *Cache[T]) Get(id int64) (T, bool) {
	s := c.shard(id)
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	return v, ok
}

// Put caches v for goroutine id, replacing any previous value.
func (c *Cache[T]) Put(id int64, v T) {
	s := c.shard(id)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[int64]T{}
	}
	s.m[id] = v
	s.mu.Unlock()
}

// GetOrPut returns the value cached for id, or caches and returns the
// result of mk() if none is present. mk runs under the shard lock at most
// once per missing id, so concurrent first lookups of one goroutine agree.
func (c *Cache[T]) GetOrPut(id int64, mk func() T) T {
	s := c.shard(id)
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[id]; ok {
		return v
	}
	if s.m == nil {
		s.m = map[int64]T{}
	}
	v = mk()
	s.m[id] = v
	return v
}

// Delete drops the value cached for goroutine id. Call it when the
// goroutine is done so the cache does not grow with goroutine churn.
func (c *Cache[T]) Delete(id int64) {
	s := c.shard(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// Len reports how many goroutines currently have a cached value.
func (c *Cache[T]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// String renders the current goroutine's id; a convenience for debug
// output and tests.
func String() string { return strconv.FormatInt(ID(), 10) }
