// Package goid captures the identity of the current goroutine in pure Go.
//
// The Go runtime deliberately hides goroutine ids, so a drop-in
// instrumentation front-end (internal/goinstr) has exactly one portable
// way to get one: parse the "goroutine N [running]:" header that
// runtime.Stack prints. ID does that with a single small runtime.Stack
// call into a pooled buffer (no allocation, no formatting of callers: the
// header fits in the first few bytes). That parse costs microseconds —
// BenchmarkID read 2.7–5.4 µs/op over `go test -run '^$' -bench 'ID$'
// -count 5 ./internal/goid` on go1.24.0 with 2 CPUs. Consumers key their
// per-goroutine state by the id (the instrumentation shim keeps a sync.Map
// from id to its per-goroutine record); the Go runtime never reuses
// goroutine ids within a process, so such a key can never alias a
// different goroutine.
//
// The package is dependency-free (stdlib only) on purpose: the
// instrumentation front-end copies its source into the shadow module it
// generates, where no module requirements are available.
package goid

import (
	"bytes"
	"runtime"
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
// microseconds, so a consumer reads it once per unit of work that needs
// it, not once per datum.
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
