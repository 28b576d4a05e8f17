// Package workloads re-creates the benchmark suite of §8 as synthetic Go
// kernels: the eight JavaGrande programs and the eleven DaCapo programs the
// paper measures (tradebeans and eclipse were incompatible with RoadRunner
// and are omitted there too). The real suites are JVM artifacts; what the
// evaluation actually depends on is each program's *memory-access
// signature* — how much of its work is thread-local, lock-protected,
// read-shared, or barrier-phased — because those signatures decide which
// analysis rules fire and therefore how the detector variants separate.
// Each kernel here reproduces the signature the paper attributes to its
// namesake:
//
//   - crypt, lufact, series, sor, sparse, moldyn, montecarlo, raytracer
//     follow the JavaGrande kernels' published structure (disjoint array
//     slices, pivot-row broadcast, barrier-phased stencils, read-shared
//     vectors, ...);
//   - sparse and sunflow are the heavy read-shared programs the paper
//     singles out as the ones VerifiedFT-v2's lock-free [Read Shared Same
//     Epoch] path rescues (316x/159x under v1 → ~25x under v2);
//   - series is almost pure compute (0.01x overhead in Table 1);
//   - the DaCapo programs are lock-and-task mixes with moderate shared
//     state.
//
// All kernels are race-free by construction so that Table 1 measures
// checking overhead, not report-path cost; the test suite runs every kernel
// under every detector and fails on any report.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/rtsim"
)

// Workload is one benchmark program.
type Workload struct {
	// Name matches the paper's program name.
	Name string
	// Suite is "javagrande" or "dacapo".
	Suite string
	// Threads is the worker count one Run uses (the paper uses 16 workers
	// for JavaGrande and the programs' defaults for DaCapo).
	Threads int
	// Pattern documents the access-pattern signature being modeled.
	Pattern string
	// Run executes one iteration of the workload on rt at the given
	// problem size. It must be race-free and deterministic in its
	// instrumented-operation structure.
	Run func(rt *rtsim.Runtime, size int)
	// BenchSize and TestSize are the problem sizes used by the Table 1
	// harness and the test suite respectively.
	BenchSize int
	TestSize  int
}

var registry []Workload

func register(w Workload) {
	if w.Run == nil || w.Name == "" || w.Threads <= 0 || w.BenchSize <= 0 || w.TestSize <= 0 {
		panic(fmt.Sprintf("workloads: malformed registration %+v", w))
	}
	registry = append(registry, w)
}

// All returns the full suite in Table 1's order (JavaGrande first, then
// DaCapo, each alphabetical).
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite > out[j].Suite // javagrande before dacapo
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByName looks a workload up.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists the suite's program names in Table 1 order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}
