// Command vft-run re-executes a recorded trace as live goroutines under a
// race detector: one goroutine per trace thread, every access and
// synchronization operation routed through the analysis. The input is a
// file or "-" for stdin, in text, binary or gzip encoding (recognized from
// the stream head), so a captured stream pipes straight in. To check a
// trace offline without re-executing it, use vft-race. See internal/cli
// for the flags.
//
// Usage:
//
//	vft-run [-d variant] [-runs N] trace | -
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.RunProg(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
