package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines, with
// readers interleaved, and checks the exact total; under -race it is also
// the counter's memory-model check.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const (
		goroutines = 16
		perG       = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
		if g%4 == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = c.Value()
			}()
		}
	}
	wg.Wait()
	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(20)
	if got := g.Value(); got != 20 {
		t.Fatalf("Set(20) = %d, want 20", got)
	}
	g.Add(5)
	if got := g.Value(); got != 25 {
		t.Fatalf("Add(5) = %d, want 25", got)
	}
	g.Sub(25)
	if got := g.Value(); got != 0 {
		t.Fatalf("Sub back to zero = %d, want 0", got)
	}
}

// TestGaugeAddSubLevel uses a gauge as a level instrument (the ingestion
// server's in-flight/queue-depth pattern): concurrent matched Add/Sub
// pairs must leave exactly zero at quiescence.
func TestGaugeAddSubLevel(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(3)
				g.Sub(2)
				g.Sub(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("matched Add/Sub pairs left %d, want 0", got)
	}
}

// TestHistogramBuckets pins the power-of-two bucket boundaries: value 0 in
// bucket 0, then bucket i covers [2^(i-1), 2^i - 1].
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 38, 39},    // largest finite bucket
		{1<<39 - 1, 39},  // still bucket 39
		{1 << 39, 39},    // clamped into the +inf bucket (same index)
		{^uint64(0), 39}, // max value clamps too
		{1<<20 + 17, 21}, // a mid-range spot check
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}
	// Bounds are consistent with bucket membership: v ≤ BucketBound(bucketOf(v)).
	for _, tc := range cases {
		if tc.v > BucketBound(bucketOf(tc.v)) {
			t.Errorf("value %d exceeds its bucket bound %d", tc.v, BucketBound(bucketOf(tc.v)))
		}
	}
	var h Histogram
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	h.Observe(1000)
	s := h.SnapshotHist()
	if s.Count != 4 || s.Sum != 1006 {
		t.Fatalf("snapshot count/sum = %d/%d, want 4/1006", s.Count, s.Sum)
	}
	want := map[uint64]uint64{BucketBound(0): 1, BucketBound(2): 2, BucketBound(10): 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d occupied buckets, want %d: %+v", len(s.Buckets), len(want), s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.N {
			t.Errorf("bucket le=%d has %d, want %d", b.Le, b.N, want[b.Le])
		}
	}
	if got := s.Mean(); got != 1006.0/4 {
		t.Errorf("Mean() = %v, want %v", got, 1006.0/4)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("events").Add(10)
	r.Gauge("size").Set(7)
	r.Histogram("lat").Observe(3)

	s := r.Snapshot()
	if s.Counters["events"] != 10 || s.Gauges["size"] != 7 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestRegistrySources(t *testing.T) {
	r := NewRegistry()
	frozen := NewSnapshot()
	frozen.Counters["reads"] = 42
	frozen.Gauges["bytes"] = 1024
	name := r.RegisterSource("vft-v2", frozen.Source())
	if name != "vft-v2" {
		t.Fatalf("effective name = %q", name)
	}
	// Second source with the same name gets a suffix, not dropped.
	other := NewSnapshot()
	other.Counters["reads"] = 1
	name2 := r.RegisterSource("vft-v2", other.Source())
	if name2 == name {
		t.Fatalf("duplicate source name not disambiguated")
	}
	s := r.Snapshot()
	if s.Counters["vft-v2.reads"] != 42 {
		t.Errorf("prefixed counter = %d, want 42", s.Counters["vft-v2.reads"])
	}
	if s.Gauges["vft-v2.bytes"] != 1024 {
		t.Errorf("prefixed gauge = %d, want 1024", s.Gauges["vft-v2.bytes"])
	}
	if s.Counters[name2+".reads"] != 1 {
		t.Errorf("second source missing: %+v", s.Counters)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(9)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	mux := http.NewServeMux()
	HandleDebug(mux, r)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if s.Counters["hits"] != 3 {
		t.Fatalf("served %+v", s)
	}
	// The quick debug routes answer too (profile and trace sample for
	// seconds).
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
}

func TestPublishIdempotent(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("x").Add(1)
	Publish("obs_test_registry", r1)
	r2 := NewRegistry()
	r2.Counter("x").Add(2)
	Publish("obs_test_registry", r2) // must not panic, must rebind
}
