// Command chan-smoke is the end-to-end exercise of trace format v2's
// Go-synchronization kinds. Two channel-heavy traces — a generated
// gosync mix and a deterministic "channel mill" with hundreds of
// buffered and unbuffered sends — each round-trip text → binary-v2 →
// decoded, get checked with `vft-race -chancaps` the way a consumer
// would, and get uploaded as the same binary-v2 bytes to a real
// vft-server with the chancap parameter; both report lists must diff
// clean against an offline CheckTrace of the same trace. It also pins
// the version fence: a channel-bearing trace must refuse to encode when
// pinned to format v1. It is a Go program rather than a shell script so
// `make chan-smoke` works on any machine with just the toolchain.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	verifiedft "repro"
	"repro/internal/ingest"
	"repro/internal/trace"
)

const seed = 20260808

func main() { os.Exit(run()) }

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "chan-smoke: FAIL: "+format+"\n", args...)
	return 1
}

// capsFlag renders a channel-capacity map as the -chancaps / chancap
// grammar: comma-separated id:cap pairs in id order.
func capsFlag(caps map[trace.Lock]int) string {
	ids := make([]int, 0, len(caps))
	for c := range caps {
		ids = append(ids, int(c))
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, c := range ids {
		parts = append(parts, fmt.Sprintf("%d:%d", c, caps[trace.Lock(c)]))
	}
	return strings.Join(parts, ",")
}

// chanMill builds a deterministic send-heavy workload: rounds of
// buffered slot-ring traffic on channel 0 (capacity 2), an unbuffered
// rendezvous on channel 1, atomics and a once, then a close and a
// drained zero-value receive. Each round's publish is ordered WITHIN
// the round by the slot edge, but nothing orders thread 1 back before
// thread 0's next round, so the write/read pair on variable 0 races
// once per round — a deterministic stream of reports that exercises
// the dedup-and-diff legs — and the planted thread-1/thread-2 pair on
// variable 9 races exactly once.
func chanMill(rounds int) trace.Trace {
	tr := trace.Trace{trace.ForkOp(0, 1), trace.ForkOp(0, 2)}
	for i := 0; i < rounds; i++ {
		tr = append(tr,
			trace.Wr(0, 0), // published below via channel 0
			trace.SendOp(0, 0), trace.SendOp(0, 0),
			trace.RecvOp(1, 0),
			trace.Rd(1, 0), // ordered by the slot edge (this round only)
			trace.RecvOp(1, 0),
			trace.SendOp(0, 1), // unbuffered: blocks thread 0...
			trace.RecvOp(2, 1), // ...until the rendezvous completes
			trace.AStore(1, 3),
			trace.ALoad(2, 3),
		)
		if i == 0 {
			tr = append(tr, trace.OnceOp(1, 2), trace.OnceOp(2, 2))
		}
		if i == rounds/2 {
			tr = append(tr, trace.Wr(1, 9), trace.Wr(2, 9)) // the race
		}
	}
	tr = append(tr,
		trace.CloseOp(0, 0),
		trace.RecvOp(2, 0), // zero-value receive after the drain
		trace.JoinOp(0, 1), trace.JoinOp(0, 2),
	)
	return tr
}

type smokeCase struct {
	name     string
	tr       trace.Trace
	ext      *trace.Extensions
	minSends int
}

func run() int {
	// A channel-heavy generated mix: more channels and channel traffic
	// than the default gosync configuration.
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 20_000
	cfg.Threads = 6
	cfg.Chans = 4
	cfg.ChanWeight = 8
	generated := smokeCase{
		name:     "generated",
		tr:       trace.Generate(rand.New(rand.NewSource(seed)), cfg),
		ext:      cfg.Extensions(),
		minSends: 1,
	}
	mill := smokeCase{
		name:     "chan-mill",
		tr:       chanMill(400),
		ext:      &trace.Extensions{ChanCapacity: map[trace.Lock]int{0: 2, 1: 0}},
		minSends: 1000,
	}

	raceBin, cleanup, err := buildVftRace()
	if err != nil {
		return fail("build vft-race: %v", err)
	}
	defer cleanup()

	for _, sc := range []smokeCase{generated, mill} {
		if code := smoke(sc, raceBin); code != 0 {
			return code
		}
	}
	return 0
}

func buildVftRace() (string, func(), error) {
	tmp, err := os.MkdirTemp("", "chan-smoke")
	if err != nil {
		return "", nil, err
	}
	bin := filepath.Join(tmp, "vft-race")
	build := exec.Command("go", "build", "-o", bin, "./cmd/vft-race")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(tmp)
		return "", nil, err
	}
	return bin, func() { os.RemoveAll(tmp) }, nil
}

func smoke(sc smokeCase, raceBin string) int {
	tr, ext := sc.tr, sc.ext
	if err := trace.ValidateExt(tr, ext); err != nil {
		return fail("%s: trace infeasible: %v", sc.name, err)
	}
	kinds := map[trace.Kind]int{}
	for _, op := range tr {
		kinds[op.Kind]++
	}
	for _, k := range []trace.Kind{trace.ChanSend, trace.ChanRecv, trace.ChanClose, trace.AtomicLoad, trace.AtomicStore, trace.AtomicRMW, trace.OnceDo} {
		if kinds[k] == 0 && !(sc.name == "chan-mill" && k == trace.AtomicRMW) {
			return fail("%s: no %v ops in %d", sc.name, k, len(tr))
		}
	}
	if kinds[trace.ChanSend] < sc.minSends {
		return fail("%s: only %d sends, want >= %d (not channel-heavy)",
			sc.name, kinds[trace.ChanSend], sc.minSends)
	}

	// Leg 1: text → binary-v2 round trip.
	var text bytes.Buffer
	if err := trace.Encode(&text, tr); err != nil {
		return fail("%s: text encode: %v", sc.name, err)
	}
	fromText, err := trace.Decode(bytes.NewReader(text.Bytes()))
	if err != nil {
		return fail("%s: text decode: %v", sc.name, err)
	}
	if !reflect.DeepEqual(tr, fromText) {
		return fail("%s: text round trip altered the trace", sc.name)
	}
	var bin bytes.Buffer
	if err := trace.EncodeBinary(&bin, fromText); err != nil {
		return fail("%s: binary encode: %v", sc.name, err)
	}
	if !bytes.HasPrefix(bin.Bytes(), []byte("VFTb\x02")) {
		return fail("%s: channel trace must encode as format v2, header %q", sc.name, bin.Bytes()[:5])
	}
	dec := trace.NewBinaryDecoder(bytes.NewReader(bin.Bytes()))
	fromBin, err := trace.ReadAll(dec)
	if err != nil {
		return fail("%s: binary decode: %v", sc.name, err)
	}
	if dec.Version() != trace.BinaryVersion2 || !reflect.DeepEqual(tr, fromBin) {
		return fail("%s: binary-v2 round trip altered the trace (version %d)", sc.name, dec.Version())
	}
	// The version fence: the same trace must refuse a v1 pin.
	if err := trace.EncodeBinaryVersion(&bytes.Buffer{}, tr, trace.BinaryVersion1); err == nil {
		return fail("%s: channel trace encoded under a v1 pin", sc.name)
	}

	// Offline truth.
	caps := map[verifiedft.LockID]int{}
	for c, n := range ext.ChanCapacity {
		caps[c] = n
	}
	offline, err := verifiedft.CheckTrace(tr,
		verifiedft.WithVariant(verifiedft.V2), verifiedft.WithChanCapacities(caps))
	if err != nil {
		return fail("%s: offline check: %v", sc.name, err)
	}
	if sc.name == "chan-mill" && len(offline) == 0 {
		return fail("chan-mill: the planted write-write race went undetected")
	}

	// Leg 2: vft-race over the binary-v2 file, diffed against the offline
	// reports (vft-race prints every report).
	tmp, err := os.MkdirTemp("", "chan-smoke-trace")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)
	tracePath := filepath.Join(tmp, sc.name+".bin")
	if err := os.WriteFile(tracePath, bin.Bytes(), 0o644); err != nil {
		return fail("%v", err)
	}
	cmd := exec.Command(raceBin, "-chancaps", capsFlag(ext.ChanCapacity), tracePath)
	var stdout, stderrBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderrBuf
	err = cmd.Run()
	wantExit := 0
	if len(offline) > 0 {
		wantExit = 1
	}
	if code := cmd.ProcessState.ExitCode(); code != wantExit {
		return fail("%s: vft-race: exit %d (want %d): %v\n%s", sc.name, code, wantExit, err, stderrBuf.String())
	}
	var wantLines []string
	for _, r := range offline {
		wantLines = append(wantLines, r.String())
	}
	gotLines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(gotLines) == 1 && gotLines[0] == "" {
		gotLines = nil
	}
	if len(offline) == 0 {
		// Clean traces print a "no races detected" banner instead.
		if len(gotLines) != 1 || !strings.Contains(gotLines[0], "no races detected") {
			return fail("%s: vft-race on a clean trace printed %q", sc.name, gotLines)
		}
	} else if !reflect.DeepEqual(wantLines, gotLines) {
		return fail("%s: vft-race reports diverge from offline CheckTrace:\n got %q\nwant %q",
			sc.name, gotLines, wantLines)
	}

	// Leg 3: upload the identical binary-v2 bytes to a real vft-server
	// with the chancap parameter; the returned reports must be
	// byte-identical to the offline truth.
	srv := ingest.New(ingest.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := fmt.Sprintf("%s/v1/traces?tenant=chan-smoke&variant=%s&chancap=%s",
		ts.URL, verifiedft.V2, capsFlag(ext.ChanCapacity))
	resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(bin.Bytes()))
	if err != nil {
		return fail("%s: upload: %v", sc.name, err)
	}
	defer resp.Body.Close()
	var res struct {
		Ops     int             `json:"ops"`
		Reports json.RawMessage `json:"reports"`
		Error   string          `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return fail("%s: upload response: %v", sc.name, err)
	}
	if resp.StatusCode != 200 {
		return fail("%s: upload: %d %s", sc.name, resp.StatusCode, res.Error)
	}
	if res.Ops != len(tr) {
		return fail("%s: server checked %d ops, want %d", sc.name, res.Ops, len(tr))
	}
	wantJSON, err := json.Marshal(ingest.FromCoreAll(offline))
	if err != nil {
		return fail("%v", err)
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, res.Reports); err != nil {
		return fail("%v", err)
	}
	if err := json.Compact(&want, wantJSON); err != nil {
		return fail("%v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fail("%s: server reports diverge from offline CheckTrace:\n got %s\nwant %s",
			sc.name, got.Bytes(), want.Bytes())
	}

	fmt.Printf("chan-smoke: OK: %s: %d ops (%d sends, %d recvs, %d closes, %d atomics, %d onces), %d report(s), text=binary-v2=vft-race=vft-server=offline\n",
		sc.name, len(tr), kinds[trace.ChanSend], kinds[trace.ChanRecv], kinds[trace.ChanClose],
		kinds[trace.AtomicLoad]+kinds[trace.AtomicStore]+kinds[trace.AtomicRMW], kinds[trace.OnceDo],
		len(offline))
	return 0
}
