package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	verifiedft "repro"
	"repro/internal/trace"
)

// bufferedChanTrace needs chancap=0:2 to be feasible: two sends fill the
// buffer before any receive.
func bufferedChanTrace() trace.Trace {
	return trace.Trace{
		trace.ForkOp(0, 1),
		trace.Wr(0, 0),
		trace.SendOp(0, 0), trace.SendOp(0, 0),
		trace.RecvOp(1, 0),
		trace.Rd(1, 0),                 // ordered by the channel: no race
		trace.Wr(1, 1), trace.Wr(0, 1), // racy pair
		trace.RecvOp(1, 0),
		trace.JoinOp(0, 1),
	}
}

// chanMill is a deterministic send-heavy workload (the one internal/cli's
// TestStreamingCommandSmoke feeds vft-race -chancaps): rounds of buffered
// slot-ring traffic on channel 0 (capacity 2), an unbuffered rendezvous on
// channel 1, atomics and a once, then a close and a drained zero-value
// receive. Nothing orders thread 1's read of variable 0 before thread 0's
// next write, so the pair races once per round, and the planted
// thread-1/thread-2 pair on variable 9 races once.
func chanMill(rounds int) trace.Trace {
	tr := trace.Trace{trace.ForkOp(0, 1), trace.ForkOp(0, 2)}
	for i := 0; i < rounds; i++ {
		tr = append(tr,
			trace.Wr(0, 0), trace.SendOp(0, 0), trace.SendOp(0, 0),
			trace.RecvOp(1, 0), trace.Rd(1, 0), trace.RecvOp(1, 0),
			trace.SendOp(0, 1), trace.RecvOp(2, 1),
			trace.AStore(1, 3), trace.ALoad(2, 3))
		if i == 0 {
			tr = append(tr, trace.OnceOp(1, 2), trace.OnceOp(2, 2))
		}
		if i == rounds/2 {
			tr = append(tr, trace.Wr(1, 9), trace.Wr(2, 9))
		}
	}
	return append(tr, trace.CloseOp(0, 0), trace.RecvOp(2, 0), trace.JoinOp(0, 1), trace.JoinOp(0, 2))
}

// TestServerChanCapParity: the chancap query parameter reaches the
// validation and lowering stages, and the upload's reports are
// byte-identical to an offline CheckTrace with the same capacities —
// the vft-server leg of the v2 acceptance criterion.
func TestServerChanCapParity(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, in := range []struct {
		name    string
		tr      trace.Trace
		caps    map[verifiedft.LockID]int
		chancap string
	}{
		{"buffered", bufferedChanTrace(), map[verifiedft.LockID]int{0: 2}, "0:2"},
		{"mill", chanMill(400), map[verifiedft.LockID]int{0: 2, 1: 0}, "0:2,1:0"},
	} {
		for _, variant := range verifiedft.Variants() {
			offline, err := verifiedft.CheckTrace(in.tr,
				verifiedft.WithVariant(variant), verifiedft.WithChanCapacities(in.caps))
			if err != nil {
				t.Fatalf("%s/%s offline: %v", in.name, variant, err)
			}
			wantJSON, err := json.Marshal(FromCoreAll(offline))
			if err != nil {
				t.Fatal(err)
			}
			url := fmt.Sprintf("/v1/traces?tenant=chan&variant=%s&chancap=%s", variant, in.chancap)
			code, resp, err := uploadRaw(ts, url, bytes.NewReader(encodeBody(t, in.tr, "binary")))
			if err != nil || code != http.StatusOK {
				t.Fatalf("%s/%s upload: %d %v %s", in.name, variant, code, err, resp)
			}
			got, err := uploadedReports(resp)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, wantJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("%s/%s: upload reports diverge from offline:\n got %s\nwant %s",
					in.name, variant, got, buf.Bytes())
			}
		}
	}

	// Without the parameter the buffered stream is infeasible (the second
	// send blocks an acting thread): a 400, not a silent mis-check.
	code, resp, err := uploadRaw(ts, "/v1/traces?tenant=chan",
		bytes.NewReader(encodeBody(t, bufferedChanTrace(), "binary")))
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("capacity-less upload: %d %v %s", code, err, resp)
	}
}

// TestServerRejectsBadExtParams: malformed chancap/parties values are a
// 400 at admission, before any body is read.
func TestServerRejectsBadExtParams(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{
		"chancap=zero", "chancap=0", "chancap=0:-1", "chancap=x:2",
		"parties=1:0", "parties=oops",
	} {
		code, resp, err := uploadRaw(ts, "/v1/traces?tenant=t&"+q,
			strings.NewReader("rd 0 0\n"))
		if err != nil || code != http.StatusBadRequest {
			t.Fatalf("%s: %d %v %s", q, code, err, resp)
		}
	}
}

// TestServerFutureFormatVersion: a binary trace from a newer writer gets
// the "upgrade this server" answer, not "corrupt trace".
func TestServerFutureFormatVersion(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, resp, err := uploadRaw(ts, "/v1/traces?tenant=t",
		bytes.NewReader([]byte("VFTb\x03")))
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("future-version upload: %d %v %s", code, err, resp)
	}
	var m map[string]any
	if err := json.Unmarshal(resp, &m); err != nil {
		t.Fatal(err)
	}
	msg, _ := m["error"].(string)
	// The body must name the version byte found, the range this server
	// ingests, and the remedy — enough for a client to act on.
	for _, want := range []string{
		"version 3",
		fmt.Sprintf("%d..%d", trace.BinaryVersion1, trace.MaxBinaryVersion),
		"upgrade this server",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("future-version error %q does not mention %q", msg, want)
		}
	}
	if strings.Contains(msg, "bad magic") {
		t.Fatalf("future version misreported as corruption: %q", msg)
	}
}
