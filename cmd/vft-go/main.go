// Command vft-go checks real Go programs: it rewrites a single-directory
// Go package so every shared memory access and synchronization operation
// (go statements, sync.Mutex/RWMutex/WaitGroup/Once, channels,
// sync/atomic) reports into a runtime shim that streams a binary format-v2
// trace, then replays the captured trace through the verified detector. A
// flow-insensitive may-share analysis elides accesses that are provably
// goroutine-local (-elide, on by default) without changing any report.
//
// Usage:
//
//	vft-go [flags] build <pkg-dir>            instrument + compile only
//	vft-go [flags] run   <pkg-dir> [args...]  instrument, run, check
//	vft-go [flags] test  <pkg-dir> [args...]  instrument tests, go test, check
//
// Exit codes: 0 no race, 1 race found, 2 error. See internal/cli for
// flags (-elide, -o, -trace, -sample, -sample-seed, -server, -tenant,
// -metrics-addr, -v) and internal/goinstr for the front-end.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.RunVftGo(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
