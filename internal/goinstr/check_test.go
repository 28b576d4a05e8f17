package goinstr

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// writeCapture encodes tr as a binary v2 capture, cut short by `cut`
// bytes, and returns its path.
func writeCapture(t testing.TB, tr trace.Trace, cut int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckTruncatedCapture: the streamed check has already seen a race
// by the time the decoder hits the torn record; the caller must still get
// the decoder's positioned error and nothing else.
func TestCheckTruncatedCapture(t *testing.T) {
	racy := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 7),
		trace.Wr(1, 7),
		trace.JoinOp(0, 1),
	}
	whole, err := Check(writeCapture(t, racy, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Reports) != 1 || whole.Events != len(racy) {
		t.Fatalf("whole capture: %d reports over %d events, want 1 over %d", len(whole.Reports), whole.Events, len(racy))
	}

	cr, err := Check(writeCapture(t, racy, 1), "")
	if cr != nil {
		t.Errorf("truncated capture returned a result: %+v", cr)
	}
	if err == nil || !strings.Contains(err.Error(), "goinstr: decoding trace:") ||
		!strings.Contains(err.Error(), "op #3") {
		t.Errorf("truncated capture: err = %v, want the decoder's error positioned at the last op (#3)", err)
	}
}

// TestCheckReportsCheckerErrors: a capture that decodes but is not a
// feasible trace is the checker's error, not the decoder's.
func TestCheckReportsCheckerErrors(t *testing.T) {
	_, err := Check(writeCapture(t, trace.Trace{trace.Rel(0, 3)}, 0), "")
	if err == nil || !strings.Contains(err.Error(), "goinstr: checking trace:") {
		t.Errorf("err = %v, want a checking error", err)
	}
}

// genMeta is the sidecar the shim would have written for a capture with
// cfg's channels: what Check needs of it is the buffer capacities.
func genMeta(t testing.TB, cfg trace.GenConfig) []byte {
	t.Helper()
	type entry struct {
		Cap int `json:"cap"`
	}
	chans := map[int32]entry{}
	for c, n := range cfg.Extensions().ChanCapacity {
		chans[int32(c)] = entry{Cap: n}
	}
	raw, err := json.Marshal(map[string]any{"chans": chans})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// BenchmarkLoadPool is Load on the benchmark's pool program with the
// build cache warm: parse, one `go list -export`, type-check against
// export data.
func BenchmarkLoadPool(b *testing.B) {
	mod := b.TempDir()
	if _, err := Load(poolDir(), false, mod); err != nil { // compiles the imports if the cache is cold
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(poolDir(), false, mod); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckStream is Check over a generated v2 capture (200k
// generator steps, Go-synchronization kinds included); allocations are
// reported because the point of streaming is that they do not grow with
// the capture.
func BenchmarkCheckStream(b *testing.B) {
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 200_000
	cfg.Threads = 8
	cfg.Vars = 64
	tr := trace.Generate(rand.New(rand.NewSource(1)), cfg)
	path := writeCapture(b, tr, 0)
	meta := filepath.Join(filepath.Dir(path), "meta.json")
	if err := os.WriteFile(meta, genMeta(b, cfg), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := Check(path, meta)
		if err != nil {
			b.Fatal(err)
		}
		if cr.Events != len(tr) {
			b.Fatalf("checked %d events, the capture has %d", cr.Events, len(tr))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/event")
}
