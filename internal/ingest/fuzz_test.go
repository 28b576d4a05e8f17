package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// FuzzIngestHTTP throws arbitrary request bodies (and tenant/variant
// parameters) at the ingestion handler. The invariants are the service's
// hard API contract, independent of what the bytes decode to:
//
//   - the handler never panics;
//   - every response is well-formed JSON with a JSON Content-Type;
//   - every non-200 response carries an "error" string;
//   - the status code is one the API documents;
//   - one upload allocates at most 64 MiB, whatever ids its ops name;
//   - the body posted again after a hostile upload gets the same reply,
//     but for its upload id: the checker a request recycles carries
//     nothing from the request before.
//
// Limits are set small so coverage-guided exploration spends its budget
// on the decode/validate/check error surface rather than on big uploads.
// hostileUpload names huge thread, variable, lock and Go-sync object ids
// beside a variable three threads share and race on.
var hostileUpload = []byte("fork 0 300\nfork 0 3\nwr 300 2000000000\nwr 0 2000000000\n" +
	"rd 300 7\nrd 3 7\nrd 0 7\nacq 3 16000000\nwr 3 7\nrel 3 16000000\n" +
	"send 0 1073741824\nrecv 300 1073741824\naload 3 1073741824\nonce 300 536870912\n" +
	"join 0 300\njoin 0 3\n")

// uploadID matches the one field two replies to the same body may differ
// in.
var uploadID = regexp.MustCompile(`"upload": [0-9]+`)

func FuzzIngestHTTP(f *testing.F) {
	// Seeds: one per wire encoding the decoder sniffs, plus truncated,
	// garbage and empty bodies and hostile parameter values.
	valid := racyTrace()
	f.Add("t0", "vft-v2", "", "", encodeBody(f, valid, "text"))
	f.Add("t1", "vft-v1", "", "", encodeBody(f, valid, "binary"))
	f.Add("t2", "ft-mutex", "", "", encodeBody(f, valid, "gzip"))
	bin := encodeBody(f, valid, "binary")
	f.Add("t3", "ft-cas", "", "", bin[:len(bin)-3])
	f.Add("t4", "", "", "", []byte("rd 0 0\nbogus"))
	f.Add("bad/tenant", "vft-v2", "", "", []byte{0x1f, 0x8b, 0xff, 0x00}) // gzip magic, broken stream
	f.Add("", "nope", "", "", []byte{})
	f.Add(strings.Repeat("x", 80), "vft-v2", "", "", []byte("VFTb\x01garbage"))
	// Trace format v2: Go-synchronization kinds, the chancap parameter
	// (valid and hostile), and a future-version header.
	f.Add("t5", "vft-v2", "0:2", "", encodeBody(f, bufferedChanTrace(), "binary"))
	f.Add("t6", "vft-v2", "", "", encodeBody(f, bufferedChanTrace(), "text"))
	f.Add("t7", "vft-v2", "", "", []byte("send 0 c0\nrecv 1 c0\nonce 0 o1\narmw 1 a2\n"))
	f.Add("t8", "vft-v2", "0:-1,zzz", "", encodeBody(f, valid, "text"))
	f.Add("t9", "vft-v2", strings.Repeat("0:2,", 40), "", []byte{})
	f.Add("t10", "vft-v2", "", "", []byte("VFTb\x03"))
	// Traces captured from instrumented real Go programs (vft-go over the
	// goinstr testdata corpus): the upload bodies the front-end actually
	// produces, with and without the chancap sidecar parameter.
	for i, seed := range []struct{ name, chancap string }{
		{"goinstr_racy_counter.bin", ""},
		{"goinstr_clean_chan.bin", "0:1"},
	} {
		b, err := os.ReadFile("testdata/" + seed.name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fmt.Sprintf("goinstr%d", i), "vft-v2", seed.chancap, "", b)
	}
	// A sampled upload naming one huge variable id: the allocation budget
	// below must hold however sparse the ids are.
	sparse := []byte("fork 0 1\nwr 1 2000000000\nwr 0 2000000000\n")
	f.Add("t11", "vft-v2", "", "0.5", sparse)
	f.Add("t12", "vft-v1.5", "", "", sparse) // the sequential arm, unsampled and sampled
	f.Add("t13", "ft-mutex", "", "1", sparse)
	// One huge thread id, one huge lock id: tables are sized by the ids an
	// upload names, on the sharded engine and on the sequential one.
	for i, hostile := range []string{"fork 0 65000\nwr 65000 1\nwr 0 1\n", "acq 0 16000000\nrel 0 16000000\n"} {
		f.Add(fmt.Sprintf("t%d", 14+2*i), "vft-v2", "", "", []byte(hostile))
		f.Add(fmt.Sprintf("t%d", 15+2*i), "vft-v1", "", "", []byte(hostile))
	}
	// t0–t3 and t12 give every variant a seed; vft-v1.5 also takes text.
	f.Add("t18", "vft-v1.5", "", "", encodeBody(f, valid, "text"))

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}

	f.Fuzz(func(t *testing.T, tenant, variant, chancap, sampleRate string, body []byte) {
		// A fresh small-limit server per input: no cross-input quota state,
		// so failures minimize deterministically.
		s := New(Config{
			MaxInFlight:     2,
			MaxBodyBytes:    1 << 16,
			MaxOpsPerUpload: 4096,
		})
		q := url.Values{}
		q.Set("tenant", tenant)
		if variant != "" {
			q.Set("variant", variant)
		}
		if chancap != "" {
			q.Set("chancap", chancap)
		}
		if sampleRate != "" {
			q.Set("sample", sampleRate)
		}
		serve := func(query string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces?"+query, bytes.NewReader(body)))
			return rec
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(q.Encode(), body) // must not panic
		runtime.ReadMemStats(&after)
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 64<<20 {
			t.Fatalf("upload allocated %d MiB (budget 64) for variant=%q sample=%q body=%q",
				delta>>20, variant, sampleRate, body)
		}

		if !allowed[rec.Code] {
			t.Fatalf("undocumented status %d for tenant=%q variant=%q body=%q",
				rec.Code, tenant, variant, body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("response not JSON (%v): %q", err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			if _, ok := m["error"].(string); !ok {
				t.Fatalf("%d response lacks \"error\": %v", rec.Code, m)
			}
		} else {
			// Accepted uploads must echo the normalized identity fields and
			// a races count matching the reports list.
			if m["tenant"] != tenant {
				t.Fatalf("tenant echoed as %v, want %q", m["tenant"], tenant)
			}
			if int(m["races"].(float64)) != len(m["reports"].([]any)) {
				t.Fatalf("races=%v but %d reports", m["races"], len(m["reports"].([]any)))
			}
		}

		if hostile := serve("tenant=hostile", hostileUpload); hostile.Code != http.StatusOK {
			t.Fatalf("hostile upload: %d %s", hostile.Code, hostile.Body.Bytes())
		}
		again := serve(q.Encode(), body)
		if again.Code != rec.Code || !bytes.Equal(uploadID.ReplaceAll(again.Body.Bytes(), nil), uploadID.ReplaceAll(rec.Body.Bytes(), nil)) {
			t.Fatalf("after a hostile upload the same body got %d %s, first %d %s", again.Code, again.Body.Bytes(), rec.Code, rec.Body.Bytes())
		}
	})
}
