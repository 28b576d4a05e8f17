package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// racyTrace is the smallest write-write race: two unordered writes to x=0.
func racyTrace() trace.Trace {
	return trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0),
		trace.Wr(1, 0),
		trace.JoinOp(0, 1),
	}
}

// encodeBody renders tr in one of the three wire encodings the decoder
// sniffs: "text", "binary", or "gzip" (gzipped binary).
func encodeBody(t testing.TB, tr trace.Trace, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	switch format {
	case "text":
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
	case "binary":
		if err := trace.EncodeBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
	case "gzip":
		zw := gzip.NewWriter(&buf)
		if err := trace.EncodeBinary(zw, tr); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown format %q", format)
	}
	return buf.Bytes()
}

// post drives one POST /v1/traces through the handler and decodes the
// response, asserting the blanket invariant that every response is JSON.
func post(t testing.TB, s *Server, url string, body io.Reader) (int, http.Header, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, body)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return decodeJSONResponse(t, rec)
}

func get(t testing.TB, s *Server, url string) (int, http.Header, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return decodeJSONResponse(t, rec)
}

func decodeJSONResponse(t testing.TB, rec *httptest.ResponseRecorder) (int, http.Header, map[string]any) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.String())
	}
	return rec.Code, rec.Header(), m
}

// wantError asserts a JSON error body with the given status.
func wantError(t testing.TB, code int, m map[string]any, wantCode int) {
	t.Helper()
	if code != wantCode {
		t.Fatalf("status %d, want %d (%v)", code, wantCode, m)
	}
	if _, ok := m["error"].(string); !ok {
		t.Fatalf("%d response lacks an \"error\" string: %v", code, m)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := New(Config{})
	body := encodeBody(t, racyTrace(), "text")
	cases := []struct {
		name string
		url  string
		code int
	}{
		{"missing tenant", "/v1/traces", http.StatusBadRequest},
		{"bad tenant chars", "/v1/traces?tenant=a/b", http.StatusBadRequest},
		{"tenant too long", "/v1/traces?tenant=" + strings.Repeat("x", 65), http.StatusBadRequest},
		{"unknown variant", "/v1/traces?tenant=t&variant=nope", http.StatusBadRequest},
		{"retired lockset variant", "/v1/traces?tenant=t&variant=eraser", http.StatusBadRequest},
		{"retired vector-clock variant", "/v1/traces?tenant=t&variant=djit", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, m := post(t, s, tc.url, bytes.NewReader(body))
			wantError(t, code, m, tc.code)
			if strings.Contains(tc.url, "variant=") && !strings.Contains(m["error"].(string), fmt.Sprint(core.Variants())) {
				t.Fatalf("error %q does not list the variants %v", m["error"], core.Variants())
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		code, _, m := get(t, s, "/v1/traces?tenant=t")
		wantError(t, code, m, http.StatusMethodNotAllowed)
	})
	t.Run("unknown path is JSON 404", func(t *testing.T) {
		code, _, m := get(t, s, "/v2/definitely/not")
		wantError(t, code, m, http.StatusNotFound)
	})
	t.Run("garbage body", func(t *testing.T) {
		code, _, m := post(t, s, "/v1/traces?tenant=t",
			strings.NewReader("this is not a trace\x00\x01\x02"))
		wantError(t, code, m, http.StatusBadRequest)
	})
	t.Run("truncated binary", func(t *testing.T) {
		bin := encodeBody(t, racyTrace(), "binary")
		code, _, m := post(t, s, "/v1/traces?tenant=t", bytes.NewReader(bin[:len(bin)-3]))
		wantError(t, code, m, http.StatusBadRequest)
	})
	t.Run("infeasible trace", func(t *testing.T) {
		bad := trace.Trace{trace.Rel(0, 0)} // release without hold
		code, _, m := post(t, s, "/v1/traces?tenant=t",
			bytes.NewReader(encodeBody(t, bad, "text")))
		wantError(t, code, m, http.StatusBadRequest)
	})
	t.Run("thread id out of range", func(t *testing.T) {
		code, _, m := post(t, s, "/v1/traces?tenant=t",
			strings.NewReader("fork 0 70000\nwr 70000 1\nwr 0 1\n"))
		wantError(t, code, m, http.StatusBadRequest)
	})
	t.Run("thread id beyond the ft-cas format", func(t *testing.T) {
		var body strings.Builder
		for u := 1; u < 300; u++ {
			fmt.Fprintf(&body, "fork 0 %d\n", u)
		}
		body.WriteString("wr 299 1\nwr 0 1\n")
		code, _, m := post(t, s, "/v1/traces?tenant=t&variant=ft-cas", strings.NewReader(body.String()))
		wantError(t, code, m, http.StatusBadRequest)
		// The same bytes are a plain racy upload for a 16-bit-tid variant.
		if code, _, m := post(t, s, "/v1/traces?tenant=t&variant=ft-mutex", strings.NewReader(body.String())); code != http.StatusOK || m["races"].(float64) != 1 {
			t.Fatalf("ft-mutex: status %d, %v; want 200 with 1 race", code, m)
		}
	})
}

func TestServerAcceptsAllEncodings(t *testing.T) {
	s := New(Config{})
	for _, format := range []string{"text", "binary", "gzip"} {
		t.Run(format, func(t *testing.T) {
			code, _, m := post(t, s, "/v1/traces?tenant=enc&variant=vft-v2",
				bytes.NewReader(encodeBody(t, racyTrace(), format)))
			if code != http.StatusOK {
				t.Fatalf("status %d: %v", code, m)
			}
			if m["races"].(float64) != 1 {
				t.Fatalf("races = %v, want 1", m["races"])
			}
			if m["ops"].(float64) != 4 {
				t.Fatalf("ops = %v, want 4", m["ops"])
			}
		})
	}
}

func TestServerBodyByteLimit(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	big := make(trace.Trace, 0, 200)
	big = append(big, trace.ForkOp(0, 1))
	for i := 0; i < 100; i++ {
		big = append(big, trace.Wr(1, trace.Var(i)))
	}
	big = append(big, trace.JoinOp(0, 1))
	code, _, m := post(t, s, "/v1/traces?tenant=t",
		bytes.NewReader(encodeBody(t, big, "text")))
	wantError(t, code, m, http.StatusRequestEntityTooLarge)
}

// TestServerOpsLimit: in every encoding, a budget one short of the 4-op
// trace rejects it with 413 and counts ingest.rejected.too_large; a budget
// of exactly 4 checks it.
func TestServerOpsLimit(t *testing.T) {
	for _, format := range []string{"text", "binary", "gzip"} {
		for _, budget := range []int{3, 4} {
			t.Run(fmt.Sprintf("%s/%d", format, budget), func(t *testing.T) {
				s := New(Config{MaxOpsPerUpload: budget})
				code, _, m := post(t, s, "/v1/traces?tenant=t",
					bytes.NewReader(encodeBody(t, racyTrace(), format)))
				tooLarge := s.Registry().Snapshot().Counters["ingest.rejected.too_large"]
				if budget == 3 {
					wantError(t, code, m, http.StatusRequestEntityTooLarge)
					if tooLarge != 1 {
						t.Fatalf("ingest.rejected.too_large = %d, want 1", tooLarge)
					}
					return
				}
				if code != http.StatusOK || m["ops"] != float64(4) || tooLarge != 0 {
					t.Fatalf("status %d, body %v, ingest.rejected.too_large = %d; want 200 with 4 ops", code, m, tooLarge)
				}
			})
		}
	}
}

func TestServerTenantQuotas(t *testing.T) {
	t.Run("streams", func(t *testing.T) {
		s := New(Config{TenantMaxStreams: 2})
		body := encodeBody(t, racyTrace(), "text")
		for i := 0; i < 2; i++ {
			code, _, m := post(t, s, "/v1/traces?tenant=q", bytes.NewReader(body))
			if code != http.StatusOK {
				t.Fatalf("upload %d: status %d: %v", i, code, m)
			}
		}
		code, hdr, m := post(t, s, "/v1/traces?tenant=q", bytes.NewReader(body))
		wantError(t, code, m, http.StatusTooManyRequests)
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		// The quota is per tenant: a different tenant still gets through.
		if code, _, m := post(t, s, "/v1/traces?tenant=other", bytes.NewReader(body)); code != http.StatusOK {
			t.Fatalf("other tenant blocked by q's quota: %d %v", code, m)
		}
	})
	t.Run("bytes", func(t *testing.T) {
		s := New(Config{TenantMaxBytes: 10})
		body := encodeBody(t, racyTrace(), "text") // > 10 bytes
		if code, _, m := post(t, s, "/v1/traces?tenant=b", bytes.NewReader(body)); code != http.StatusOK {
			t.Fatalf("first upload should pass (cap checked at admission): %d %v", code, m)
		}
		code, _, m := post(t, s, "/v1/traces?tenant=b", bytes.NewReader(body))
		wantError(t, code, m, http.StatusTooManyRequests)
	})
}

// TestServerSaturation pins the backpressure contract: with one in-flight
// slot held by a stalled upload, the next POST gets 429 + Retry-After
// immediately (QueueWait 0) and the gauges account for the stall.
func TestServerSaturation(t *testing.T) {
	s := New(Config{MaxInFlight: 1, RetryAfter: 7 * time.Second})

	pr, pw := io.Pipe() // a body that stalls mid-read holds the slot
	stalled := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/traces?tenant=slow", pr)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("stalled upload finished %d: %s", rec.Code, rec.Body.String())
		}
	}()
	// Feed enough text to get past decoder sniffing and admission, then stall.
	if _, err := io.WriteString(pw, "fork 0 1\nwr 0 0\n"); err != nil {
		t.Fatal(err)
	}
	// Wait for the slot to actually be held.
	for i := 0; ; i++ {
		if s.Registry().Snapshot().Gauges["ingest.inflight"] == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("stalled upload never took the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}
	close(stalled)

	code, hdr, m := post(t, s, "/v1/traces?tenant=fast",
		bytes.NewReader(encodeBody(t, racyTrace(), "text")))
	wantError(t, code, m, http.StatusTooManyRequests)
	if got := hdr.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}

	// Unstall: finish the held upload, then the same POST succeeds.
	<-stalled
	io.WriteString(pw, "wr 1 0\njoin 0 1\n")
	pw.Close()
	wg.Wait()
	if code, _, m := post(t, s, "/v1/traces?tenant=fast",
		bytes.NewReader(encodeBody(t, racyTrace(), "text"))); code != http.StatusOK {
		t.Fatalf("post-stall upload: %d %v", code, m)
	}
	snap := s.Registry().Snapshot()
	if snap.Gauges["ingest.inflight"] != 0 {
		t.Fatalf("ingest.inflight = %d at quiescence", snap.Gauges["ingest.inflight"])
	}
	if snap.Counters["ingest.rejected.saturated"] != 1 {
		t.Fatalf("ingest.rejected.saturated = %d, want 1", snap.Counters["ingest.rejected.saturated"])
	}
}

// panicReader returns the first n bytes of r and then panics, as a bug in
// the check path would, partway through an upload.
type panicReader struct {
	r io.Reader
	n int
}

func (p *panicReader) Read(b []byte) (int, error) {
	if p.n <= 0 {
		panic("reader broke mid-stream")
	}
	n, err := p.r.Read(b[:min(len(b), p.n)])
	p.n -= n
	return n, err
}

// TestServerRecoversCheckPanic: a panic inside one upload's check fails
// that upload alone — a JSON 500, ingest.panics counted, the stack in the
// log, the in-flight slot released — and the next upload's reply is what
// a fresh server gives, but for its upload id.
func TestServerRecoversCheckPanic(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 5000
	big := encodeBody(t, trace.Generate(rand.New(rand.NewSource(1)), cfg), "binary")
	s := New(Config{MaxInFlight: 1})
	code, _, m := post(t, s, "/v1/traces?tenant=p&chancap=1:1,2:2", &panicReader{r: bytes.NewReader(big), n: len(big) / 2})
	wantError(t, code, m, http.StatusInternalServerError)
	snap := s.Registry().Snapshot()
	if snap.Counters["ingest.panics"] != 1 || snap.Gauges["ingest.inflight"] != 0 {
		t.Fatalf("ingest.panics = %d, ingest.inflight = %d; want 1 and 0",
			snap.Counters["ingest.panics"], snap.Gauges["ingest.inflight"])
	}
	if !strings.Contains(logged.String(), "reader broke mid-stream") || !strings.Contains(logged.String(), "panicReader") {
		t.Fatalf("the log lacks the panic and its stack:\n%s", logged.String())
	}

	body := encodeBody(t, racyTrace(), "binary")
	reply := func(s *Server) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces?tenant=p", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return regexp.MustCompile(`"upload": [0-9]+`).ReplaceAll(rec.Body.Bytes(), nil)
	}
	if got, want := reply(s), reply(New(Config{})); !bytes.Equal(got, want) {
		t.Fatalf("after the panic:\n%s\na fresh server:\n%s", got, want)
	}
}

// TestServerQueueWait: with a wait budget, a saturated upload parks in the
// bounded queue and is admitted when the slot frees instead of failing.
func TestServerQueueWait(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueWait: 30 * time.Second})

	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/traces?tenant=slow", pr)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	io.WriteString(pw, "fork 0 1\n")
	for i := 0; s.Registry().Snapshot().Gauges["ingest.inflight"] != 1; i++ {
		if i > 1000 {
			t.Fatal("first upload never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Second upload parks; release the slot once it is visibly queued.
	done := make(chan int)
	go func() {
		code, _, _ := post(t, s, "/v1/traces?tenant=waiter",
			bytes.NewReader(encodeBody(t, racyTrace(), "text")))
		done <- code
	}()
	for i := 0; s.Registry().Snapshot().Gauges["ingest.queue.depth"] != 1; i++ {
		if i > 1000 {
			t.Fatal("second upload never queued")
		}
		time.Sleep(time.Millisecond)
	}
	io.WriteString(pw, "wr 0 0\njoin 0 1\n")
	pw.Close()
	wg.Wait()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued upload finished %d, want 200", code)
	}
	snap := s.Registry().Snapshot()
	if snap.Gauges["ingest.queue.depth"] != 0 || snap.Gauges["ingest.inflight"] != 0 {
		t.Fatalf("gauges not at zero: queue=%d inflight=%d",
			snap.Gauges["ingest.queue.depth"], snap.Gauges["ingest.inflight"])
	}
}

func TestServerDrainRejectsNewUploads(t *testing.T) {
	s := New(Config{})
	body := encodeBody(t, racyTrace(), "text")
	if code, _, m := post(t, s, "/v1/traces?tenant=t", bytes.NewReader(body)); code != http.StatusOK {
		t.Fatalf("pre-drain upload: %d %v", code, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, hdr, m := post(t, s, "/v1/traces?tenant=t", bytes.NewReader(body))
	wantError(t, code, m, http.StatusServiceUnavailable)
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Reads keep working while drained.
	if code, _, m := get(t, s, "/v1/reports?tenant=t"); code != http.StatusOK {
		t.Fatalf("drained read: %d %v", code, m)
	}
	// Health flips to 503 draining.
	code, _, m = get(t, s, "/healthz")
	if code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("healthz while draining: %d %v", code, m)
	}
}

func TestServerHealthAndTenants(t *testing.T) {
	s := New(Config{})
	code, _, m := get(t, s, "/healthz")
	if code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	body := encodeBody(t, racyTrace(), "text")
	post(t, s, "/v1/traces?tenant=zeta", bytes.NewReader(body))
	post(t, s, "/v1/traces?tenant=alpha", bytes.NewReader(body))
	code, _, m = get(t, s, "/v1/tenants")
	if code != http.StatusOK {
		t.Fatalf("tenants: %d %v", code, m)
	}
	names := m["tenants"].([]any)
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("tenants = %v, want sorted [alpha zeta]", names)
	}
}

func TestServerReportsEndpoints(t *testing.T) {
	s := New(Config{UploadRetention: 2})
	body := func() *bytes.Reader { return bytes.NewReader(encodeBody(t, racyTrace(), "text")) }
	for i := 0; i < 3; i++ {
		if code, _, m := post(t, s, "/v1/traces?tenant=r", body()); code != http.StatusOK {
			t.Fatalf("upload %d: %d %v", i, code, m)
		}
	}

	// Aggregated view: 3 uploads of the same race → 1 distinct, count 3.
	code, _, m := get(t, s, "/v1/reports?tenant=r")
	if code != http.StatusOK {
		t.Fatalf("reports: %d %v", code, m)
	}
	if m["uploads"].(float64) != 3 || m["distinct"].(float64) != 1 {
		t.Fatalf("uploads/distinct = %v/%v, want 3/1", m["uploads"], m["distinct"])
	}
	agg := m["aggregated"].([]any)[0].(map[string]any)
	if agg["count"].(float64) != 3 || agg["first_upload"].(float64) != 1 || agg["last_upload"].(float64) != 3 {
		t.Fatalf("aggregate = %v", agg)
	}

	// Verbatim views: upload 1 evicted by retention, 2 and 3 retained.
	code, _, m = get(t, s, "/v1/reports?tenant=r&upload=1")
	wantError(t, code, m, http.StatusNotFound)
	for _, id := range []int{2, 3} {
		code, _, m = get(t, s, fmt.Sprintf("/v1/reports?tenant=r&upload=%d", id))
		if code != http.StatusOK || m["upload"].(float64) != float64(id) {
			t.Fatalf("upload %d: %d %v", id, code, m)
		}
		if len(m["reports"].([]any)) != 1 {
			t.Fatalf("upload %d reports = %v", id, m["reports"])
		}
	}

	// Error paths.
	code, _, m = get(t, s, "/v1/reports?tenant=nobody")
	wantError(t, code, m, http.StatusNotFound)
	code, _, m = get(t, s, "/v1/reports?tenant=r&upload=xyz")
	wantError(t, code, m, http.StatusBadRequest)
	code, _, m = get(t, s, "/v1/reports")
	wantError(t, code, m, http.StatusBadRequest)
}

// TestServerStateRoundTrip: drain → save → load into a fresh server →
// identical /v1/reports bytes, and upload numbering continues.
func TestServerStateRoundTrip(t *testing.T) {
	s1 := New(Config{})
	body := func() *bytes.Reader { return bytes.NewReader(encodeBody(t, racyTrace(), "text")) }
	post(t, s1, "/v1/traces?tenant=alpha", body())
	post(t, s1, "/v1/traces?tenant=alpha", body())
	post(t, s1, "/v1/traces?tenant=beta&variant=vft-v1", body())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	if err := s2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alpha", "beta"} {
		r1 := httptest.NewRecorder()
		s1.Handler().ServeHTTP(r1, httptest.NewRequest(http.MethodGet, "/v1/reports?tenant="+tenant, nil))
		r2 := httptest.NewRecorder()
		s2.Handler().ServeHTTP(r2, httptest.NewRequest(http.MethodGet, "/v1/reports?tenant="+tenant, nil))
		if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
			t.Fatalf("tenant %s reports drifted across restart:\n%s\nvs\n%s",
				tenant, r1.Body.String(), r2.Body.String())
		}
	}
	// Numbering continues: alpha's next upload on the new server is 3.
	code, _, m := post(t, s2, "/v1/traces?tenant=alpha", body())
	if code != http.StatusOK || m["upload"].(float64) != 3 {
		t.Fatalf("post-restart upload = %v (status %d), want 3", m["upload"], code)
	}

	// A corrupt or wrong-version state file is refused.
	if err := New(Config{}).LoadState(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt state accepted")
	}
	if err := New(Config{}).LoadState(strings.NewReader(`{"version":99,"tenants":[]}`)); err == nil {
		t.Fatal("future state version accepted")
	}

	// State files saved by earlier versions still load and serve, though
	// they hold aggregates of retired variants: 2.8.0's of the lockset
	// variant, whose reports carry a "msg" field this build no longer has,
	// and 2.11.0's of the retired vector-clock variant.
	for _, name := range []string{"state_v1_lockset.json", "state_v1_djit.json"} {
		legacy, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var saved persistedState
		if err := json.Unmarshal(legacy, &saved); err != nil {
			t.Fatal(err)
		}
		s3 := New(Config{})
		if err := s3.LoadState(bytes.NewReader(legacy)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r3 := httptest.NewRecorder()
		s3.Handler().ServeHTTP(r3, httptest.NewRequest(http.MethodGet, "/v1/reports?tenant=legacy", nil))
		var got TenantReport
		if err := json.Unmarshal(r3.Body.Bytes(), &got); err != nil || r3.Code != http.StatusOK ||
			got.Uploads != 3 || got.Distinct != 2 || !reflect.DeepEqual(got.Aggregated, saved.Tenants[0].Aggregated) {
			t.Fatalf("%s: status %d, err %v, reports %s", name, r3.Code, err, r3.Body.String())
		}
	}
}

// TestServerMetricsEndpoint: /metrics serves the registry as JSON with
// the ingest instruments present.
func TestServerMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	post(t, s, "/v1/traces?tenant=m", bytes.NewReader(encodeBody(t, racyTrace(), "text")))
	code, _, m := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	counters := m["counters"].(map[string]any)
	if counters["ingest.uploads.completed"].(float64) != 1 {
		t.Fatalf("completed counter = %v", counters["ingest.uploads.completed"])
	}
	if counters["ingest.reports.recorded"].(float64) != 1 {
		t.Fatalf("recorded counter = %v", counters["ingest.reports.recorded"])
	}
}
