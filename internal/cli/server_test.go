package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/trace"
)

// syncBuffer is a bytes.Buffer safe for the Server goroutine to write
// while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenAddrRe = regexp.MustCompile(`serving on (http://[^ ]+) `)

// TestServerServeDrainRestart drives the full vft-server lifecycle
// in-process with an injected signal channel: serve on an ephemeral port,
// accept an upload over real HTTP, SIGTERM, drain, persist state — then
// boot a second instance from the state file and confirm the tenant's
// reports survived the restart.
func TestServerServeDrainRestart(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.json")
	tr := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0), trace.JoinOp(0, 1)}
	var body bytes.Buffer
	if err := trace.Encode(&body, tr); err != nil {
		t.Fatal(err)
	}

	run := func(ready func(base string)) (int, *syncBuffer, *syncBuffer) {
		sig := make(chan os.Signal, 1)
		restore := serverSignals
		serverSignals = func() (<-chan os.Signal, func()) { return sig, func() {} }
		defer func() { serverSignals = restore }()

		var stdout, stderr syncBuffer
		exit := make(chan int, 1)
		go func() {
			exit <- Server([]string{"-addr", "localhost:0", "-state", statePath}, &stdout, &stderr)
		}()
		// Wait for the listen line and extract the ephemeral address.
		var base string
		for i := 0; ; i++ {
			if m := listenAddrRe.FindStringSubmatch(stdout.String()); m != nil {
				base = m[1]
				break
			}
			if i > 5000 {
				t.Fatalf("server never announced its address:\n%s\n%s", stdout.String(), stderr.String())
			}
			time.Sleep(time.Millisecond)
		}
		ready(base)
		sig <- syscall.SIGTERM
		select {
		case code := <-exit:
			return code, &stdout, &stderr
		case <-time.After(30 * time.Second):
			t.Fatalf("server did not exit after SIGTERM:\n%s\n%s", stdout.String(), stderr.String())
			return -1, nil, nil
		}
	}

	// First life: upload one racy trace.
	code, stdout, stderr := run(func(base string) {
		resp, err := http.Post(base+"/v1/traces?tenant=cli-test", "application/octet-stream",
			bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: %d %s", resp.StatusCode, b)
		}
	})
	if code != 0 {
		t.Fatalf("first life exited %d:\n%s\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "drained cleanly (1 uploads completed") {
		t.Fatalf("missing drain summary:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "saved tenant state") {
		t.Fatalf("state not saved:\n%s", stderr.String())
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatal(err)
	}

	// Second life: the restored server serves the same reports.
	code, stdout, stderr = run(func(base string) {
		resp, err := http.Get(base + "/v1/reports?tenant=cli-test")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep struct {
			Uploads  int `json:"uploads"`
			Distinct int `json:"distinct"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		if rep.Uploads != 1 || rep.Distinct != 1 {
			t.Fatalf("restored report = %+v, want 1 upload / 1 distinct race", rep)
		}
	})
	if code != 0 {
		t.Fatalf("second life exited %d:\n%s\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "restored tenant state") {
		t.Fatalf("state not restored:\n%s", stderr.String())
	}
}

func TestServerBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-shards", "2"}, // the sharded engine's knob: undefined, not ignored
		{"positional"},
		{"-addr", "256.256.256.256:99999"},
		{"-sample", "2"},
	}
	for _, args := range cases {
		var stdout, stderr syncBuffer
		if code := Server(args, &stdout, &stderr); code != 2 {
			t.Errorf("Server(%v) = %d, want 2", args, code)
		}
	}

	// A corrupt state file refuses to boot.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr syncBuffer
	if code := Server([]string{"-state", bad}, &stdout, &stderr); code != 2 {
		t.Errorf("corrupt state accepted (exit %d):\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "load state") {
		t.Errorf("unexpected error output:\n%s", stderr.String())
	}
}

// TestServerBinarySmoke runs the real vft-server executable: boot with
// -state, upload via HTTP, SIGTERM the process, and check the exit status
// and drain summary — the closest test to production supervision.
func TestServerBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	dir := buildCmds(t)
	statePath := filepath.Join(t.TempDir(), "state.json")

	cmd := commandWithPipes(t, filepath.Join(dir, "vft-server"),
		"-addr", "localhost:0", "-state", statePath)
	defer cmd.Process.Kill()

	base := waitListenLine(t, cmd.stdout)
	tr := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0), trace.JoinOp(0, 1)}
	var body bytes.Buffer
	if err := trace.Encode(&body, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/traces?tenant=smoke", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, b)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("vft-server exited uncleanly: %v\n%s", err, cmd.stdout.String())
	}
	out := cmd.stdout.String()
	if !strings.Contains(out, "drained cleanly (1 uploads completed") {
		t.Fatalf("missing drain summary:\n%s", out)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("state file missing: %v", err)
	}
}

// pipedCmd is an exec.Cmd with both output streams teed into one
// poll-able buffer.
type pipedCmd struct {
	*exec.Cmd
	stdout *syncBuffer
}

func waitListenLine(t *testing.T, out *syncBuffer) string {
	t.Helper()
	for i := 0; ; i++ {
		if m := listenAddrRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if i > 10000 {
			t.Fatalf("no listen line:\n%s", out.String())
		}
		time.Sleep(time.Millisecond)
	}
}

func commandWithPipes(t *testing.T, bin string, args ...string) *pipedCmd {
	t.Helper()
	var buf syncBuffer
	c := exec.Command(bin, args...)
	c.Stdout = &buf
	c.Stderr = &buf
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return &pipedCmd{Cmd: c, stdout: &buf}
}

// TestWriteStateKeepsPreviousOnFailure: a state save that fails part-way
// leaves the previous state file byte for byte as it was, and loadable,
// with no temporary file beside it.
func TestWriteStateKeepsPreviousOnFailure(t *testing.T) {
	srv := ingest.New(ingest.Config{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces?tenant=t",
		strings.NewReader("fork 0 1\nwr 0 0\nwr 1 0\njoin 0 1\n")))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := writeState(path, srv.SaveState); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	full := errors.New("no space left on device")
	err = writeState(path, func(w io.Writer) error {
		io.WriteString(w, `{"version":`)
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("failed save returned %v, want the write's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("state file after a failed save: %q, %v; want it unchanged", after, err)
	}
	if err := ingest.New(ingest.Config{}).LoadState(bytes.NewReader(after)); err != nil {
		t.Fatalf("state file after a failed save does not load: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after a failed save holds %v (%v); want the state file alone", entries, err)
	}
}
