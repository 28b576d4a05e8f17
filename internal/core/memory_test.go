package core

import (
	"math/rand"
	"testing"

	"repro/internal/epoch"
	"repro/internal/trace"
)

// Epochs beat vector clocks on space: on a workload where every variable
// is accessed by a single thread, v2's per-variable footprint is O(1) — the
// same at 2 threads as at 8 — where a vector clock per variable grows with
// the thread count.
func TestShadowBytesEpochsBeatVectors(t *testing.T) {
	const nVars = 256
	perVar := func(nThreads int) uint64 {
		d := NewV2(Config{})
		// Every thread writes its own disjoint variable block — thread-
		// local data, the common case §5's fast paths target.
		for w := 0; w < nThreads; w++ {
			tid := epoch.Tid(w)
			if w > 0 {
				d.Fork(0, tid)
			}
			for i := 0; i < nVars/nThreads; i++ {
				x := trace.Var(w*nVars/nThreads + i)
				d.Write(tid, x)
				d.Read(tid, x)
			}
		}
		if d.vars.Len() != nVars {
			t.Fatalf("%d threads: %d variables in the shadow table, want %d", nThreads, d.vars.Len(), nVars)
		}
		return (d.ShadowBytes() - d.threadLockBytes()) / nVars
	}
	two, eight := perVar(2), perVar(8)
	if two == 0 || two != eight {
		t.Errorf("v2 shadow per variable: %d bytes at 2 threads, %d at 8; want equal and nonzero", two, eight)
	}
	t.Logf("thread-local workload: v2 %d bytes per variable at 2 and at 8 threads", two)
}

// Read-shared variables cost v2 a vector too ([Read Share] allocates it);
// the advantage narrows but the exclusive variables still dominate.
func TestShadowBytesGrowOnShare(t *testing.T) {
	d := NewV2(Config{})
	before := d.ShadowBytes()
	d.Fork(0, 1)
	d.Read(0, 0)
	d.Read(1, 0) // Share transition allocates the vector
	after := d.ShadowBytes()
	if after <= before {
		t.Fatalf("Share transition did not grow shadow: %d -> %d", before, after)
	}
}

func TestShadowBytesAllVariants(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Acq(0, 0), trace.Wr(0, 0), trace.Rel(0, 0),
		trace.Acq(1, 0), trace.Rd(1, 0), trace.Rel(1, 0),
		trace.Rd(0, 0), // shares x0
	}
	for _, name := range Variants() {
		d := newDetector(t, name)
		Replay(d, tr)
		s, ok := d.(ShadowSized)
		if !ok {
			t.Errorf("%s does not implement ShadowSized", name)
			continue
		}
		if got := s.ShadowBytes(); got == 0 {
			t.Errorf("%s: ShadowBytes = 0 after activity", name)
		}
	}
}

// TestV2ShadowBytesIsEpochShadowBytes: after a replay of a lowered Go-sync
// trace, core.V2's footprint is EpochShadowBytes over V2's own clocks and
// variables — the formula the offline machine reports with — so
// shadow.bytes means one thing on both engines.
func TestV2ShadowBytesIsEpochShadowBytes(t *testing.T) {
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 600
	ext := cfg.Extensions()
	shared := 0
	for seed := int64(0); seed < 8; seed++ {
		d := NewV2(Config{})
		Replay(d, trace.Generate(rand.New(rand.NewSource(seed)), cfg).Desugar(ext))
		threads, locks := d.clocks()
		vecEntries := 0
		for _, sx := range d.vars.Snapshot() {
			if p := sx.v.Load(); p != nil {
				vecEntries += len(*p)
			}
		}
		shared += vecEntries
		if got, want := d.ShadowBytes(), EpochShadowBytes(threads, locks, d.vars.Len(), vecEntries); got != want {
			t.Errorf("seed %d: V2.ShadowBytes() = %d, EpochShadowBytes over its state = %d", seed, got, want)
		}
	}
	if shared == 0 {
		t.Fatal("no variable became read-shared; the read vectors went unchecked")
	}
}
