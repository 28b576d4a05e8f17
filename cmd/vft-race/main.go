// Command vft-race checks a trace file for data races.
//
// Usage:
//
//	vft-race [-d variant] [-all] [-oracle] [-parties N] [file]
//
// The trace is read from the named file or stdin ("-" or no argument): text
// in the line format of internal/trace (e.g. "wr 0 3", "acq 1 0", "fork 0
// 1", "# comment"), binary or gzip, told apart by the stream head. Races
// print one per line; exit status is 1 if any race was found, 2 on usage
// or input errors, 0 otherwise. -all -oracle runs the whole differential
// stack of internal/conformance on the trace — the replay path for a trace
// a failing conformance test prints, and the triage path for a capture
// from the field. See internal/cli for the implementation.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Race(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
