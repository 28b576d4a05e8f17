// Command vft-bench regenerates Table 1 of the paper: base time per
// program and checking overhead per detector variant, with geometric
// means, and under the table the §5 rule mix of the v2 column (the three
// lock-free rules' shares of all accesses beside the paper's 60/14/12%).
// Alongside the text table it writes a machine-readable BENCH_table1.json
// (program, suite, base seconds, per-detector overhead, geometric means;
// -json renames or disables it). See internal/cli for the implementation
// and flags.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Bench(os.Args[1:], os.Stdout, os.Stderr))
}
