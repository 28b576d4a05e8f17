package ingest

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkIngestThroughput measures the full ingestion path at the
// handler level — admission, decode, validate, lower and check in one
// pass, depot commit, JSON response — for one ~10k-operation binary upload
// per iteration. Custom metrics: streams/sec (upload completions per wall
// second) and p99-ms (99th-percentile upload latency); allocations per
// upload are reported too, since the checker a warm server recycles
// should leave few. EXPERIMENTS.md E18 and E30 record the committed
// numbers.
func BenchmarkIngestThroughput(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 10_000
	cfg.Threads = 8
	cfg.Vars = 64
	tr := trace.Generate(rand.New(rand.NewSource(7)), cfg)
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()

	s := New(Config{MaxInFlight: 64, UploadRetention: 1})
	lat := make([]time.Duration, 0, b.N)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/traces?tenant=bench&variant=vft-v2",
			bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.Handler().ServeHTTP(rec, req)
		lat = append(lat, time.Since(t0))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "streams/sec")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
	b.ReportMetric(float64(cfg.Ops)*float64(b.N)/elapsed.Seconds(), "ops/sec")
}
