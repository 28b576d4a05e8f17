package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rtsim"
	"repro/internal/spec"
)

// Every workload must be race-free under every detector: Table 1
// measures checking overhead, and a report would mean either a workload bug
// or a detector false positive. Run with -race to also check the detectors'
// internal synchronization disciplines under real workload concurrency.
func TestAllWorkloadsRaceFree(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, name := range core.Variants() {
				d, err := core.New(name, core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				rt := rtsim.New(d)
				w.Run(rt, w.TestSize)
				if reports := rt.Reports(); len(reports) != 0 {
					t.Fatalf("%s under %s: %d reports, first: %v",
						w.Name, name, len(reports), reports[0])
				}
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		// JavaGrande
		"crypt", "lufact", "moldyn", "montecarlo", "raytracer", "series", "sor", "sparse",
		// DaCapo (minus tradebeans and eclipse, as in the paper)
		"avrora", "batik", "fop", "h2", "jython", "luindex", "lusearch",
		"pmd", "sunflow", "tomcat", "xalan",
	}
	if len(names) != len(want) {
		t.Fatalf("suite has %d programs, want %d: %v", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order mismatch at %d: got %v", i, names)
		}
	}
	if _, err := ByName("sparse"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("tradebeans"); err == nil {
		t.Fatal("tradebeans should be absent (RoadRunner-incompatible in the paper)")
	}
}

// ruleMix runs a workload under vft-v2 at sizeMul × its test size and
// returns the rule histogram. Signature assertions use sizeMul > 1 because
// the same-epoch fractions are depressed at tiny sizes (a worker that owns
// a single row never revisits anything within an epoch).
func ruleMix(t *testing.T, name string, sizeMul int) [spec.NumRules]uint64 {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.New("vft-v2", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := rtsim.New(d)
	w.Run(rt, w.TestSize*sizeMul)
	if len(rt.Reports()) != 0 {
		t.Fatalf("%s raced: %v", name, rt.Reports()[0])
	}
	return d.RuleCounts()
}

func accesses(c [spec.NumRules]uint64) uint64 {
	readRules := []spec.Rule{
		spec.ReadSameEpoch, spec.ReadSharedSameEpoch, spec.ReadExclusive,
		spec.ReadShare, spec.ReadShared,
	}
	writeRules := []spec.Rule{spec.WriteSameEpoch, spec.WriteExclusive, spec.WriteShared}
	var n uint64
	for _, r := range readRules {
		n += c[r]
	}
	for _, r := range writeRules {
		n += c[r]
	}
	return n
}

// sparse's signature: the large majority of its reads hit [Read Shared Same
// Epoch] — that is the whole point of the kernel and of v2.
func TestSparseIsReadSharedSameEpochDominated(t *testing.T) {
	c := ruleMix(t, "sparse", 2)
	total := accesses(c)
	if total == 0 {
		t.Fatal("no accesses")
	}
	frac := float64(c[spec.ReadSharedSameEpoch]) / float64(total)
	if frac < 0.5 {
		t.Errorf("sparse: ReadSharedSameEpoch fraction = %.2f, want > 0.5 (counts %v)", frac, c)
	}
}

func TestSunflowIsReadSharedSameEpochDominated(t *testing.T) {
	c := ruleMix(t, "sunflow", 3)
	total := accesses(c)
	frac := float64(c[spec.ReadSharedSameEpoch]) / float64(total)
	if frac < 0.5 {
		t.Errorf("sunflow: ReadSharedSameEpoch fraction = %.2f, want > 0.5", frac)
	}
}

// crypt's signature: overwhelmingly same-epoch on thread-private slices.
func TestCryptIsSameEpochDominated(t *testing.T) {
	c := ruleMix(t, "crypt", 1)
	total := accesses(c)
	fast := c[spec.ReadSameEpoch] + c[spec.WriteSameEpoch]
	if frac := float64(fast) / float64(total); frac < 0.6 {
		t.Errorf("crypt: same-epoch fraction = %.2f, want > 0.6 (counts %v)", frac, c)
	}
}

// series's signature: very few instrumented operations in total relative to
// the other kernels — that's what makes its overhead ~0.01x.
func TestSeriesHasFewInstrumentedOps(t *testing.T) {
	series := accesses(ruleMix(t, "series", 1))
	sparse := accesses(ruleMix(t, "sparse", 1))
	if series*10 > sparse {
		t.Errorf("series accesses = %d, sparse = %d; series should be tiny", series, sparse)
	}
}

// The §5 claim: across the suite, the three lock-free rules cover the large
// majority of accesses (85% in the paper's benchmarks; we assert a
// conservative floor).
func TestFastPathsCoverMostAccesses(t *testing.T) {
	var total, fast uint64
	for _, w := range All() {
		d, err := core.New("vft-v2", core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rt := rtsim.New(d)
		w.Run(rt, w.TestSize*2)
		c := d.RuleCounts()
		total += accesses(c)
		fast += c[spec.ReadSameEpoch] + c[spec.WriteSameEpoch] + c[spec.ReadSharedSameEpoch]
	}
	frac := float64(fast) / float64(total)
	if frac < 0.70 {
		t.Errorf("fast-path coverage = %.2f over the suite, want > 0.70", frac)
	}
	t.Logf("fast-path coverage over the suite: %.1f%% (paper: ~85%%)", frac*100)
}

// Workloads must produce identical instrumented-operation counts in base
// and instrumented runs — i.e. the detector must not perturb target
// control flow. We check by running twice under the same detector kind.
func TestWorkloadsDeterministicOpCounts(t *testing.T) {
	for _, name := range []string{"crypt", "sparse", "h2", "xalan"} {
		a := ruleMix(t, name, 1)
		b := ruleMix(t, name, 1)
		if accesses(a) != accesses(b) {
			t.Errorf("%s: access counts differ across runs: %d vs %d",
				name, accesses(a), accesses(b))
		}
	}
}
