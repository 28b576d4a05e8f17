// Package goinstr is the vft-go front-end: it turns a real Go package
// into a VerifiedFT workload by source rewriting. The pipeline is
//
//	Load      parse + type-check the package (go/parser, go/types);
//	          imports come from the compiler's export data, located by
//	          one `go list -export` in the shadow module — the go tool
//	          the Run step needs anyway, and no network: on a cold build
//	          cache that call compiles the imported packages once. A
//	          kept shadow module records the answer, and a rerun under an
//	          unchanged toolchain and configuration reuses it; a rerun of
//	          unchanged sources too skips Load, Analyze, Rewrite and Emit
//	Analyze   flow-insensitive may-share analysis over the typed AST
//	Rewrite   instrument shared memory accesses and map Go
//	          synchronization (go statements, sync.Mutex/RWMutex/
//	          WaitGroup/Once, channels, sync/atomic) onto calls into the
//	          runtime shim (internal/goinstr/rt)
//	Emit      write the rewritten package into the shadow module, which
//	          already holds the shim and builds offline (module
//	          vftshadow, no requirements), and delete any other
//	          package's sources a kept module still holds
//	Run       go build the shadow module and execute it with VFT_TRACE
//	          set, yielding a binary v2 trace + the meta sidecar beside
//	          it (rt.MetaPath). A kept shadow module records the binary
//	          it linked, and a rerun whose module files, toolchain and
//	          configuration are unchanged reuses it without a go build.
//	          The one record (vft-kept.json, see Instrument and Build)
//	          is keyed on what the go command would read, read without
//	          running it, so a warm rerun runs no go command at all
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

	// OutDir is where the shadow module is written (see outDirOK). Empty
	// means the caller must set it (the CLI uses a temp dir).
	OutDir string
}

// Stats counts what the rewriter did; vft-go -v prints them.
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

	exports map[string]string // import path → export file, as Load found it
	goList  time.Duration     // what Load spent in `go list -export`
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
	// -export`, the one go command Instrument may run: zero for a package
	// without imports, and when the shadow module's record stood in for
	// the list or for the whole of Instrument.
	GoList time.Duration
}

// Instrument loads the package in dir, runs the analysis and rewriter,
// and emits the shadow module into opts.OutDir: Load writes the module's
// fixed part, because it resolves imports from inside it, and the
// rewritten package is added at the end.
//
// A kept shadow module holds the record of the last Instrument there
// (recordName), and Instrument returns the recorded result and does
// nothing else — no parse, no type check, no rewrite, no file written —
// when the toolchain (toolchainKey), the source (sourceKey) and the
// module's build inputs (moduleKey) are all the recorded ones. That is
// sound because the module Instrument would emit is a function of the
// source key's inputs and of the toolchain's export data, which the
// toolchain key covers, and the module key shows the module on disk is
// the one emitted. Any miss takes the whole path and rewrites the record.
// An OutDir holding anything but a shadow module is refused (outDirOK)
// before anything is written.
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
	if err := outDirOK(out); err != nil {
		return nil, err
	}
	toolchain, source := toolchainKey(), sourceKey(dir, opts)
	rec := readRecord(out)
	if toolchain != "" && source != "" && rec.Toolchain == toolchain && rec.Source == source && rec.Module == moduleKey(out) {
		return &Instrumented{Dir: out, Stats: rec.Stats, Main: rec.Main}, nil
	}
	pkg, err := load(dir, opts.IncludeTests, out, toolchain, rec)
	if err != nil {
		return nil, err
	}
	sh := Analyze(pkg)
	rw := newRewriter(pkg, sh, opts.Elide)
	rw.rewriteAll()
	if err := emitPackage(out, pkg, opts.IncludeTests); err != nil {
		return nil, err
	}
	inst := &Instrumented{Dir: out, Stats: rw.stats, Main: pkg.Pkg.Name() == "main", GoList: pkg.goList}
	next := keptRecord{Toolchain: toolchain, Source: source, Module: moduleKey(out), Exports: pkg.exports, Stats: inst.Stats, Main: inst.Main}
	if rec.Toolchain == toolchain && rec.Module == next.Module {
		next.Bin = rec.Bin // the binary linked from these same bytes
	}
	writeRecord(out, next)
	return inst, nil
}
