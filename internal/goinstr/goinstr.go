// Package goinstr is the vft-go front-end: it turns a real Go package
// into a VerifiedFT workload by source rewriting. The pipeline is
//
//	Load      parse + type-check the package (go/parser, go/types);
//	          imports come from the compiler's export data, located by
//	          one `go list -export` in the shadow module — the go tool
//	          the Run step needs anyway, and no network: on a cold build
//	          cache that call compiles the imported packages once
//	Analyze   flow-insensitive may-share analysis over the typed AST
//	Rewrite   instrument shared memory accesses and map Go
//	          synchronization (go statements, sync.Mutex/RWMutex/
//	          WaitGroup/Once, channels, sync/atomic) onto calls into the
//	          runtime shim (internal/goinstr/rt)
//	Emit      write the rewritten package into the shadow module, which
//	          already holds the shim and its goid dependency and builds
//	          offline (module vftshadow, no requirements)
//	Run       go build the shadow module and execute it with VFT_TRACE
//	          set, yielding a binary v2 trace + meta sidecar
//	Check     stream the trace through the verified checker, rendering
//	          reports with source-level names
//
// The verified core is untouched: the front-end only manufactures traces
// in the v2 language the checker already speaks.
//
// # The may-share analysis
//
// Instrumenting every access is sound but slow and noisy. The analysis
// proves some accesses goroutine-local and elides them. A variable may
// be shared if it is package-level, has its address taken anywhere, or
// is captured by a function literal that may run on another goroutine (a
// `go` literal, or any literal that escapes — only immediately-invoked
// and deferred literals are known to stay on the creating goroutine).
// An access is elided only when its storage is provably a local
// variable's own storage: a direct use of a non-shared variable, a field
// path through struct values, or an index into an array value, rooted at
// a non-shared local. Anything reached through a pointer, slice, map or
// interface is always instrumented — the referent may be shared even
// when the referring variable is not (a slice value sent over a channel
// shares its backing array without the slice variable ever having its
// address taken).
//
// Soundness of elision for report parity: an elided access touches
// storage owned by a variable only one goroutine can reach, so it can
// never be one side of a race, so instrumenting it cannot add a report —
// it can only add never-racing events. Reports with elision on and off
// are therefore identical, which the corpus end-to-end test enforces
// byte-for-byte.
package goinstr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"time"
)

// Options configure one Instrument run.
type Options struct {
	// Elide enables the may-share elision; when false every
	// instrumentable access is instrumented (the parity baseline).
	Elide bool

	// IncludeTests also loads and rewrites _test.go files (the `vft-go
	// test` mode) and injects a TestMain that flushes the trace.
	IncludeTests bool

	// OutDir is where the shadow module is written. Empty means the
	// caller must set it (the CLI uses a temp dir).
	OutDir string
}

// Stats counts what the rewriter did; the CLI surfaces these through the
// obs registry as instr.sites / instr.elided / instr.skipped.
type Stats struct {
	// Sites is the number of instrumentable access sites seen.
	Sites int
	// Elided is how many of those the may-share analysis proved local
	// and left uninstrumented.
	Elided int
	// Skipped counts constructs the rewriter does not model precisely
	// and conservatively left uninstrumented (non-addressable l-values,
	// unsupported sync APIs); each skip is a possible false negative,
	// never a false positive.
	Skipped int
}

// ElisionRate is Elided/Sites, 0 if no sites.
func (s Stats) ElisionRate() float64 {
	if s.Sites == 0 {
		return 0
	}
	return float64(s.Elided) / float64(s.Sites)
}

// Package is a loaded, type-checked single-directory package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Names []string // base file name per Files entry
	Pkg   *types.Package
	Info  *types.Info
	Dir   string

	goList time.Duration // what Load spent in `go list -export`
}

// Instrumented is the result of Instrument: a shadow module on disk plus
// the rewrite statistics.
type Instrumented struct {
	// Dir is the shadow module root (go build runs here), absolute.
	Dir string
	// Stats are the rewrite counters.
	Stats Stats
	// Main reports whether the package is a main package.
	Main bool
	// GoList is the part of Instrument's time spent waiting for `go list
	// -export` (zero for a package without imports).
	GoList time.Duration
}

// Instrument loads the package in dir, runs the analysis and rewriter,
// and emits the shadow module into opts.OutDir: Load writes the module's
// fixed part, because it resolves imports from inside it, and the
// rewritten package is added at the end.
func Instrument(dir string, opts Options) (*Instrumented, error) {
	if opts.OutDir == "" {
		return nil, fmt.Errorf("goinstr: Options.OutDir must be set")
	}
	// Absolute once, here: go build and go test run with the shadow module
	// as their working directory, where a relative path would point inside
	// it a second time.
	out, err := filepath.Abs(opts.OutDir)
	if err != nil {
		return nil, fmt.Errorf("goinstr: %w", err)
	}
	pkg, err := Load(dir, opts.IncludeTests, out)
	if err != nil {
		return nil, err
	}
	sh := Analyze(pkg)
	rw := newRewriter(pkg, sh, opts.Elide)
	rw.rewriteAll()
	if err := emitPackage(out, pkg, opts.IncludeTests); err != nil {
		return nil, err
	}
	return &Instrumented{Dir: out, Stats: rw.stats, Main: pkg.Pkg.Name() == "main", GoList: pkg.goList}, nil
}
