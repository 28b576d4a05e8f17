package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	verifiedft "repro"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/trace"
)

// The end-to-end suite: real HTTP server, real goroutine clients, the
// conformance corpus as workload. The property under test is the
// service's precision contract — every report a tenant reads back over
// HTTP is byte-for-byte the report an offline CheckTrace of the same
// stream produces — held under concurrent multi-tenant load, chaotic
// neighbor traffic, and a drain/restart cycle.

// corpusEntry is one workload trace with its per-variant offline truth.
type corpusEntry struct {
	name    string
	tr      trace.Trace
	expect  map[string][]core.Report // variant → offline CheckTrace reports
	expJSON map[string][]byte        // variant → canonical reports JSON
}

// buildCorpus records every conformance kernel under the deterministic
// pct scheduler plus one hand-built extended-operation trace (volatiles
// and a two-party barrier) to cover the desugaring path, then computes
// offline truth for all five variants.
func buildCorpus(t testing.TB) []corpusEntry {
	t.Helper()
	var entries []corpusEntry
	for _, prog := range conformance.Programs() {
		tr, _, err := conformance.RunOne(prog, "pct", 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		entries = append(entries, corpusEntry{name: prog.Name, tr: tr})
	}
	entries = append(entries, corpusEntry{
		name: "extended-ops",
		tr: trace.Trace{
			trace.ForkOp(0, 1),
			trace.VWr(0, 9), trace.VRd(1, 9),
			trace.BarrierOp(0, 3), trace.BarrierOp(1, 3), // 2 parties: the nil-parties default
			trace.Wr(0, 0), trace.Wr(1, 0), // racy pair
			trace.Wr(0, 1), trace.Rd(1, 1), // racy pair
			trace.JoinOp(0, 1),
		},
	})
	entries = append(entries, corpusEntry{
		// Go synchronization (trace format v2), feasible with no chancap
		// parameter: an unbuffered-channel rendezvous, an atomic, a once.
		name: "gosync-ops",
		tr: trace.Trace{
			trace.ForkOp(0, 1), trace.ForkOp(0, 2),
			trace.AStore(0, 5),
			trace.SendOp(1, 0), trace.RecvOp(0, 0), // rendezvous
			trace.ALoad(1, 5),
			trace.OnceOp(1, 2), trace.OnceOp(2, 2),
			trace.Wr(1, 0), trace.Wr(2, 0), // racy pair
			trace.CloseOp(0, 0), trace.RecvOp(2, 0),
			trace.JoinOp(0, 1), trace.JoinOp(0, 2),
		},
	})
	for i := range entries {
		e := &entries[i]
		trace.MustValidate(e.tr)
		e.expect = map[string][]core.Report{}
		e.expJSON = map[string][]byte{}
		for _, v := range verifiedft.Variants() {
			reports, err := verifiedft.CheckTrace(e.tr, verifiedft.WithVariant(v))
			if err != nil {
				t.Fatalf("%s/%s offline: %v", e.name, v, err)
			}
			e.expect[v] = reports
			b, err := json.Marshal(FromCoreAll(reports))
			if err != nil {
				t.Fatal(err)
			}
			e.expJSON[v] = b
		}
	}
	return entries
}

// uploadRaw streams body to the server over real HTTP and returns the
// response status and bytes.
func uploadRaw(ts *httptest.Server, url string, body io.Reader) (int, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+url, "application/octet-stream", body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// uploadedReports extracts the raw "reports" array from an upload
// response, compacted for byte comparison.
func uploadedReports(body []byte) ([]byte, error) {
	var res struct {
		Reports json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, res.Reports); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestE2EMultiTenantParity is the headline test: N tenants concurrently
// stream the whole corpus across all five variants and rotating wire
// encodings, while chaos clients inject garbage, truncated and slow
// uploads. Every accepted upload's reports must be byte-identical to the
// offline truth, per tenant, and the aggregated views must survive a
// drain/restart cycle intact. Run under -race this is also the service's
// concurrency audit.
func TestE2EMultiTenantParity(t *testing.T) {
	corpus := buildCorpus(t)
	variants := verifiedft.Variants()
	encodings := []string{"text", "binary", "gzip"}

	tenants := 4
	if testing.Short() {
		tenants = 2
	}

	// Backpressure is exercised elsewhere (TestServerSaturation); here the
	// clients must all get through, so give admission real headroom and a
	// wait budget rather than sizing to GOMAXPROCS.
	srv := New(Config{MaxInFlight: 2 * (tenants + 1), QueueWait: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errc := make(chan error, tenants*4)

	// Good tenants: the full corpus × variants matrix, rotated encodings.
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", ti)
			for ci, e := range corpus {
				for vi, variant := range variants {
					// Rotate encodings across the matrix, but identically for
					// every tenant, so tenants run byte-identical workloads
					// and their aggregated views must agree exactly.
					enc := encodings[(ci+vi)%len(encodings)]
					body := encodeBody(t, e.tr, enc)
					url := fmt.Sprintf("/v1/traces?tenant=%s&variant=%s", tenant, variant)
					code, resp, err := uploadRaw(ts, url, bytes.NewReader(body))
					if err != nil {
						errc <- fmt.Errorf("%s %s/%s: %v", tenant, e.name, variant, err)
						return
					}
					if code != http.StatusOK {
						errc <- fmt.Errorf("%s %s/%s: status %d: %s", tenant, e.name, variant, code, resp)
						return
					}
					got, err := uploadedReports(resp)
					if err != nil {
						errc <- fmt.Errorf("%s %s/%s: %v", tenant, e.name, variant, err)
						return
					}
					if !bytes.Equal(got, e.expJSON[variant]) {
						errc <- fmt.Errorf("%s %s/%s: reports diverge from offline CheckTrace:\n got %s\nwant %s",
							tenant, e.name, variant, got, e.expJSON[variant])
						return
					}
				}
			}
		}(ti)
	}

	// Chaos clients: garbage, truncated and slow uploads under their own
	// tenant names. They must fail cleanly (4xx JSON) without perturbing
	// the good tenants.
	chaosDone := make(chan struct{})
	var chaosAccepted atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(99))
		bin := encodeBody(t, corpus[0].tr, "binary")
		for i := 0; i < 30; i++ {
			var code int
			var resp []byte
			var err error
			switch i % 3 {
			case 0: // garbage bytes
				junk := make([]byte, 64)
				rng.Read(junk)
				code, resp, err = uploadRaw(ts, "/v1/traces?tenant=chaos", bytes.NewReader(junk))
			case 1: // truncated binary stream
				cut := 1 + rng.Intn(len(bin)-1)
				code, resp, err = uploadRaw(ts, "/v1/traces?tenant=chaos", bytes.NewReader(bin[:cut]))
			case 2: // slow trickle of a valid prefix, then hangup
				pr, pw := io.Pipe()
				go func() {
					io.WriteString(pw, "fork 0 1\n")
					time.Sleep(time.Millisecond)
					io.WriteString(pw, "wr 1 0\n")
					pw.CloseWithError(io.ErrUnexpectedEOF)
				}()
				code, resp, err = uploadRaw(ts, "/v1/traces?tenant=chaos", pr)
			}
			if err != nil {
				continue // client-side abort of a deliberately broken upload
			}
			// A truncation landing exactly on an op boundary is a valid
			// shorter stream and may legitimately be accepted; random
			// garbage never is.
			if code == http.StatusOK {
				if i%3 == 0 {
					errc <- fmt.Errorf("chaos upload %d accepted: %s", i, resp)
					return
				}
				chaosAccepted.Add(1)
			}
			var m map[string]any
			if err := json.Unmarshal(resp, &m); err != nil {
				errc <- fmt.Errorf("chaos upload %d: non-JSON response %q", i, resp)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiescence: level gauges back to zero, accepted == completed for the
	// good tenants (chaos uploads are accepted-then-failed, so compare
	// completions against the known good-upload count).
	snap := srv.Registry().Snapshot()
	if snap.Gauges["ingest.inflight"] != 0 || snap.Gauges["ingest.queue.depth"] != 0 {
		t.Fatalf("gauges nonzero at quiescence: inflight=%d queue=%d",
			snap.Gauges["ingest.inflight"], snap.Gauges["ingest.queue.depth"])
	}
	wantDone := uint64(tenants*len(corpus)*len(variants)) + chaosAccepted.Load()
	if got := snap.Counters["ingest.uploads.completed"]; got != wantDone {
		t.Fatalf("completed = %d, want %d", got, wantDone)
	}

	// Aggregated views are per-tenant identical: every tenant ran the same
	// workload, so their /v1/reports bodies must agree modulo the tenant
	// name, and distinct counts must reflect dedup across the matrix.
	agg := make(map[string][]byte, tenants)
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		resp, err := ts.Client().Get(ts.URL + "/v1/reports?tenant=" + tenant)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		agg[tenant] = bytes.ReplaceAll(b, []byte(tenant), []byte("TENANT"))
	}
	for ti := 1; ti < tenants; ti++ {
		a, b := agg["tenant-0"], agg[fmt.Sprintf("tenant-%d", ti)]
		if !bytes.Equal(a, b) {
			t.Fatalf("tenants diverged on identical workloads:\n%s\nvs\n%s", a, b)
		}
	}

	// Drain, persist, restart, and compare every tenant's aggregated view
	// across the boundary: zero accepted uploads may be lost.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := srv.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{})
	if err := srv2.LoadState(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		r1, err := ts.Client().Get(ts.URL + "/v1/reports?tenant=" + tenant)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := io.ReadAll(r1.Body)
		r1.Body.Close()
		r2, err := ts2.Client().Get(ts2.URL + "/v1/reports?tenant=" + tenant)
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("tenant %s reports lost across drain/restart:\n%s\nvs\n%s", tenant, b1, b2)
		}
	}
	<-chaosDone
}

// TestE2EVerbatimUploadParity re-reads retained uploads via GET
// /v1/reports?upload=N and checks the stored verbatim reports still match
// offline truth — the depot's aggregation must never rewrite the
// per-upload record.
func TestE2EVerbatimUploadParity(t *testing.T) {
	corpus := buildCorpus(t)
	srv := New(Config{UploadRetention: len(corpus) * len(verifiedft.Variants())})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := map[int][]byte{}
	next := 0
	for _, e := range corpus {
		for _, variant := range verifiedft.Variants() {
			url := fmt.Sprintf("/v1/traces?tenant=verbatim&variant=%s", variant)
			code, resp, err := uploadRaw(ts, url, bytes.NewReader(encodeBody(t, e.tr, "binary")))
			if err != nil || code != http.StatusOK {
				t.Fatalf("%s/%s: %d %v %s", e.name, variant, code, err, resp)
			}
			next++
			want[next] = e.expJSON[variant]
		}
	}
	for id, exp := range want {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/reports?tenant=verbatim&upload=%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %d %s", id, resp.StatusCode, b)
		}
		got, err := uploadedReports(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("upload %d verbatim reports drifted:\n got %s\nwant %s", id, got, exp)
		}
	}
}

// TestE2EProcessorCountIsInvisible: how many processors the host has
// selects nothing in the service. The same upload mix — every corpus
// entry, cycling through the five variants and three encodings, plus a
// sampled upload and a rejected one — posted to a fresh server under
// GOMAXPROCS 1 and under 4 gets byte-identical response bodies, the same
// aggregated reports, and a /metrics document with the same keys.
func TestE2EProcessorCountIsInvisible(t *testing.T) {
	corpus := buildCorpus(t)
	variants := verifiedft.Variants()
	formats := []string{"text", "binary", "gzip"}
	type upload struct {
		url  string
		body []byte
	}
	var mix []upload
	for i, e := range corpus {
		mix = append(mix, upload{
			url:  fmt.Sprintf("/v1/traces?tenant=t%d&variant=%s", i%3, variants[i%len(variants)]),
			body: encodeBody(t, e.tr, formats[i%len(formats)]),
		})
	}
	mix = append(mix,
		upload{"/v1/traces?tenant=t0&sample=0.5&sample_seed=9", encodeBody(t, corpus[0].tr, "binary")},
		upload{"/v1/traces?tenant=t1", []byte("rel 0 0\n")}) // infeasible: 400

	run := func(procs int) (bodies []string, keys []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := New(Config{})
		do := func(method, url string, body []byte) []byte {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
			return rec.Body.Bytes()
		}
		for _, u := range mix {
			bodies = append(bodies, string(do(http.MethodPost, u.url, u.body)))
		}
		for _, tenant := range []string{"t0", "t1", "t2"} {
			bodies = append(bodies, string(do(http.MethodGet, "/v1/reports?tenant="+tenant, nil)))
		}
		var snap map[string]map[string]json.RawMessage
		if err := json.Unmarshal(do(http.MethodGet, "/metrics", nil), &snap); err != nil {
			t.Fatalf("GOMAXPROCS %d: /metrics is not a JSON object of sections: %v", procs, err)
		}
		for section, m := range snap {
			for k := range m {
				keys = append(keys, section+" "+k)
			}
		}
		sort.Strings(keys)
		return bodies, keys
	}

	bodies1, keys1 := run(1)
	bodies4, keys4 := run(4)
	for i := range bodies1 {
		if bodies1[i] != bodies4[i] {
			t.Errorf("response %d differs:\nGOMAXPROCS 1: %s\nGOMAXPROCS 4: %s", i, bodies1[i], bodies4[i])
		}
	}
	if !reflect.DeepEqual(keys1, keys4) {
		t.Errorf("/metrics key set differs:\nGOMAXPROCS 1: %v\nGOMAXPROCS 4: %v", keys1, keys4)
	}
}
