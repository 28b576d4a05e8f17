// Command sample-smoke checks the sampling tier's headline guarantee the
// way CI wants it checked: a racy ~100k-operation generated trace plus
// the whole conformance corpus, swept across sampling rates, requiring at
// every rate that the sampled reports equal the precise reports filtered
// to the sampled variables (re-numbered from zero) — which at rate 1.0
// collapses to byte-identity with the precise tier — through the library
// and, for the generated trace, through `vft-race -d sampled:<rate>` on the
// binary file the way a consumer would check it. It is a Go program rather
// than a shell script so it works on any machine with just the toolchain.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"

	verifiedft "repro"
	"repro/internal/conformance"
	"repro/internal/sample"
	"repro/internal/trace"
)

const samplingSeed = 7

var rates = []float64{1, 0.5, 0.1, 0.01, 0}

func main() { os.Exit(run()) }

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "sample-smoke: FAIL: "+format+"\n", args...)
	return 1
}

// filterSampled is the contract: the precise reports on sampled
// variables, re-numbered from zero.
func filterSampled(precise []verifiedft.Report, pol sample.Policy) []verifiedft.Report {
	var out []verifiedft.Report
	for _, r := range precise {
		if pol.Sampled(r.X) {
			r.Seq = len(out)
			out = append(out, r)
		}
	}
	return out
}

func sameReports(a, b []verifiedft.Report) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// checkOne verifies one (trace, rate) cell.
func checkOne(name string, tr verifiedft.Trace, precise []verifiedft.Report, rate float64) error {
	pol := sample.Policy{Rate: rate, Seed: samplingSeed}
	want := filterSampled(precise, pol)
	opts := []verifiedft.CheckOption{
		verifiedft.WithSampling(rate, verifiedft.WithSamplingSeed(samplingSeed)),
	}
	seq, err := verifiedft.CheckTrace(tr, opts...)
	if err != nil {
		return fmt.Errorf("%s rate %v: %v", name, rate, err)
	}
	if !sameReports(want, seq) {
		return fmt.Errorf("%s rate %v: sampled reports are not the filtered precise reports (%d vs %d)",
			name, rate, len(seq), len(want))
	}
	if rate == 1 && !sameReports(precise, seq) {
		return fmt.Errorf("%s: rate 1.0 diverged from the precise tier (%d vs %d reports)",
			name, len(seq), len(precise))
	}
	return nil
}

// checkCLI verifies one rate through the vft-race binary: the printed
// reports of `vft-race -d sampled:<rate> tracePath` are the filtered
// precise reports under the default seed, which is the one the variant
// spelling uses.
func checkCLI(raceBin, tracePath string, precise []verifiedft.Report, rate float64) error {
	var want []string
	for _, r := range filterSampled(precise, sample.Policy{Rate: rate, Seed: sample.DefaultSeed}) {
		want = append(want, r.String())
	}
	cmd := exec.Command(raceBin, "-d", fmt.Sprintf("sampled:%v", rate), tracePath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	wantExit := 0
	if len(want) > 0 {
		wantExit = 1
	}
	if code := cmd.ProcessState.ExitCode(); code != wantExit {
		return fmt.Errorf("vft-race rate %v: exit %d (want %d): %v\n%s", rate, code, wantExit, err, stderr.String())
	}
	got := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(want) == 0 {
		if len(got) != 1 || !strings.Contains(got[0], "no races detected") {
			return fmt.Errorf("vft-race rate %v: a clean sample printed %q", rate, got)
		}
	} else if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("vft-race rate %v: printed reports are not the filtered precise reports (%d vs %d)",
			rate, len(got), len(want))
	}
	return nil
}

func run() int {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 100_000
	cfg.Threads = 8
	cfg.Vars = 256
	cfg.Locks = 8
	cfg.LockedFraction = 0 // no locking bias: plenty of races to filter
	gen := trace.Generate(rand.New(rand.NewSource(20260808)), cfg)

	traces := []struct {
		name string
		tr   verifiedft.Trace
	}{{"generated", gen}}
	for _, prog := range conformance.Programs() {
		tr, _, err := conformance.RunOne(prog, "pct", 1, nil)
		if err != nil {
			return fail("conformance %s: %v", prog.Name, err)
		}
		traces = append(traces, struct {
			name string
			tr   verifiedft.Trace
		}{prog.Name, tr})
	}

	// The CLI leg: the generated trace as a binary file through vft-race.
	tmp, err := os.MkdirTemp("", "sample-smoke")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)
	raceBin := filepath.Join(tmp, "vft-race")
	build := exec.Command("go", "build", "-o", raceBin, "./cmd/vft-race")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fail("build vft-race: %v", err)
	}
	var bin bytes.Buffer
	if err := verifiedft.EncodeBinary(&bin, gen); err != nil {
		return fail("encode: %v", err)
	}
	genPath := filepath.Join(tmp, "generated.bin")
	if err := os.WriteFile(genPath, bin.Bytes(), 0o644); err != nil {
		return fail("%v", err)
	}
	genPrecise, err := verifiedft.CheckTrace(gen)
	if err != nil {
		return fail("generated precise: %v", err)
	}
	for _, rate := range rates {
		if err := checkCLI(raceBin, genPath, genPrecise, rate); err != nil {
			return fail("%v", err)
		}
	}
	fmt.Printf("sample-smoke: vft-race -d sampled:<rate> on the generated trace — all %d rates sound ✓\n", len(rates))

	for _, tc := range traces {
		precise, err := verifiedft.CheckTrace(tc.tr)
		if err != nil {
			return fail("%s precise: %v", tc.name, err)
		}
		for _, rate := range rates {
			if err := checkOne(tc.name, tc.tr, precise, rate); err != nil {
				return fail("%v", err)
			}
		}
		fmt.Printf("sample-smoke: %-12s %6d ops, %3d precise reports — all %d rates sound, rate 1.0 identical ✓\n",
			tc.name, len(tc.tr), len(precise), len(rates))
	}

	fmt.Println("sample-smoke: OK — every rate reported exactly the precise races on sampled variables")
	return 0
}
