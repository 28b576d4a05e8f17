package verifiedft

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestCheckSourceMatchesCheckTrace: on the same 10k-op generated prefix,
// CheckSource over a streaming generator and CheckTrace over the
// materialized trace produce identical reports for every variant — the
// refactor's no-drift guarantee, exercised end to end (same ops reach both
// by generator determinism, and CheckTrace is a wrapper by construction).
func TestCheckSourceMatchesCheckTrace(t *testing.T) {
	const ops, seed = 10_000, 99
	cfg := trace.DefaultGenConfig()
	cfg.Ops = ops
	materialized := trace.Generate(rand.New(rand.NewSource(seed)), cfg)

	for _, variant := range Variants() {
		t.Run(variant, func(t *testing.T) {
			want, err := CheckTrace(materialized, WithVariant(variant))
			if err != nil {
				t.Fatal(err)
			}
			src := trace.GenerateSource(rand.New(rand.NewSource(seed)), cfg)
			got, err := CheckSource(src, WithVariant(variant))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("report drift: CheckTrace %d reports, CheckSource %d\n%v\nvs\n%v",
					len(want), len(got), want, got)
			}
		})
	}
}

// checkGenerated runs CheckSource over an n-op generated stream that is
// never materialized and returns the heap allocated during the run.
func checkGenerated(t *testing.T, variant string, n int) uint64 {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Ops = n
	src := trace.GenerateSource(rand.New(rand.NewSource(7)), cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reports, err := CheckSource(src, WithVariant(variant), WithMaxReportsPerVar(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	_ = reports
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckSourceBoundedMemory: checking a 1M-op stream allocates barely
// more than checking a 200k-op stream of the same shape — the pipeline's
// footprint scales with the id spaces (fixed here by the generator
// config), not the stream length. A materialized 1M-op trace alone is
// ~16 MB of Op structs, so the ceiling on the *delta* (4 MB for 800k extra
// ops) is far below what any whole-trace path could meet. All five
// variants are held to it.
func TestCheckSourceBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-op streams in -short mode")
	}
	const small, large = 200_000, 1_000_000
	const deltaCeiling = 4 << 20
	for _, variant := range Variants() {
		t.Run(variant, func(t *testing.T) {
			base := checkGenerated(t, variant, small)
			full := checkGenerated(t, variant, large)
			delta := int64(full) - int64(base)
			t.Logf("%s: %d-op run allocated %d bytes, %d-op run %d (delta %d)",
				variant, small, base, large, full, delta)
			if delta > deltaCeiling {
				t.Fatalf("allocation grew %d bytes from %d to %d ops — streaming path is materializing (ceiling %d)",
					delta, small, large, deltaCeiling)
			}
		})
	}
}

// TestCheckReaderSniffsEncodings: the io.Reader entry point accepts all
// three on-the-wire encodings and agrees with CheckTrace.
func TestCheckReaderSniffsEncodings(t *testing.T) {
	tr := Trace{Fork(0, 1), Write(0, 0), Write(1, 0), Join(0, 1)}
	want, err := CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture trace should race")
	}
	var text, bin bytes.Buffer
	if err := trace.Encode(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	var gzBin bytes.Buffer
	zw := gzip.NewWriter(&gzBin)
	if _, err := zw.Write(bin.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	encodings := map[string][]byte{
		"text":        text.Bytes(),
		"binary":      bin.Bytes(),
		"gzip-binary": gzBin.Bytes(),
	}
	for name, data := range encodings {
		t.Run(name, func(t *testing.T) {
			got, err := CheckReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("report drift on %s input:\n%v\nvs\n%v", name, want, got)
			}
		})
	}
}
