// Package internal holds the sources of the vft-go runtime shim, which
// internal/goinstr copies into every shadow module it builds: the shim
// itself (goinstr/rt) and the packages the shim links to check the
// program inline — the kernel and what it imports (epoch, vc, spec,
// trace). A //go:embed pattern cannot reach outside its own directory, so
// the one list of those files sits here, above them all. The shim may not
// link anything else of this repository: obs, say, would pull net/http
// into every instrumented program.
package internal

import "embed"

// ShimSources is the shim and the files of its dependencies that it
// compiles, at their paths below internal/: not, among others, trace's
// gzip-sniffing decoder or its generator, which would link compress/* and
// math/rand into every instrumented program.
//
//go:embed goinstr/rt/rt.go goinstr/rt/wrappers.go
//go:embed kernel/feed.go kernel/front.go kernel/machine.go kernel/step.go
//go:embed epoch/epoch.go vc/vc.go spec/spec.go
//go:embed trace/binary.go trace/chan.go trace/ext.go trace/idtable.go
//go:embed trace/lower.go trace/op.go trace/source.go trace/trace.go trace/validate.go
var ShimSources embed.FS
