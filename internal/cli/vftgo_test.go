package cli

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/goinstr/rt"
	"repro/internal/ingest"
)

func writeVftGoProgram(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const racyProg = `package main

import (
	"fmt"
	"sync"
)

var counter int

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counter++
		}()
	}
	wg.Wait()
	fmt.Println(counter)
}
`

const cleanProg = `package main

import (
	"fmt"
	"sync"
)

var (
	mu      sync.Mutex
	counter int
)

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			counter++
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Println(counter)
}
`

// TestVftGoRun exercises the full CLI path: racy program exits 1 and
// names the variable, clean program exits 0 and prints no report.
func TestVftGoRun(t *testing.T) {
	if testing.Short() {
		t.Skip("vft-go run builds a shadow module")
	}
	t.Run("racy", func(t *testing.T) {
		t.Parallel()
		dir := writeVftGoProgram(t, racyProg)
		var out, errOut strings.Builder
		code := RunVftGo([]string{"run", dir}, strings.NewReader(""), &out, &errOut)
		if code != 1 {
			t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "race on counter") {
			t.Errorf("stdout = %q, want a report naming counter", out.String())
		}
	})
	t.Run("clean", func(t *testing.T) {
		t.Parallel()
		dir := writeVftGoProgram(t, cleanProg)
		var out, errOut strings.Builder
		code := RunVftGo([]string{"run", dir}, strings.NewReader(""), &out, &errOut)
		if code != 0 {
			t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
		if strings.Contains(out.String(), "race on") {
			t.Errorf("stdout = %q, want no reports", out.String())
		}
	})
}

// TestVftGoServerDiff uploads the captured trace to a live ingest server
// and requires the server's reports to agree with the local check.
func TestVftGoServerDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("vft-go run builds a shadow module")
	}
	srv := ingest.New(ingest.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := writeVftGoProgram(t, racyProg)
	var out, errOut strings.Builder
	code := RunVftGo([]string{"-server", ts.URL, "run", dir}, strings.NewReader(""), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "server check agrees") {
		t.Errorf("stderr = %q, want server agreement", errOut.String())
	}
}

// TestVftGoBadInvocations pins the usage errors.
func TestVftGoBadInvocations(t *testing.T) {
	var out, errOut strings.Builder
	if code := RunVftGo(nil, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code := RunVftGo([]string{"frobnicate", "x"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("bad mode: exit = %d, want 2", code)
	}
	if code := RunVftGo([]string{"run", "/nonexistent-vft-go"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("bad dir: exit = %d, want 2", code)
	}
	errOut.Reset()
	if code := RunVftGo([]string{"-sample", "2", "run", "."}, strings.NewReader(""), &out, &errOut); code != 2 ||
		!strings.Contains(errOut.String(), "rate must be in [0, 1]") {
		t.Errorf("-sample 2: exit = %d, want 2 and a rate error\n%s", code, errOut.String())
	}
}

// exitProg races like racyProg but leaves with os.Exit, which skips the
// Shutdown the rewriter defers in main, so the shim writes no verdict.
const exitProg = `package main

import (
	"fmt"
	"os"
	"sync"
)

var counter int

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counter++
		}()
	}
	wg.Wait()
	fmt.Println(counter)
	os.Exit(0)
}
`

// lossyProg sends on an unbuffered channel whose receiver is
// uninstrumented (reflect's Recv): the send is logged, its settle wait
// times out, and main's next record comes from a thread the validator
// still sees blocked in that send.
const lossyProg = `package main

import (
	"fmt"
	"reflect"
)

var after int

func main() {
	c := make(chan int)
	go func() { reflect.ValueOf(c).Recv() }()
	c <- 1
	after = 1
	fmt.Println(after)
}
`

// chdirProg races like racyProg after moving to the temp directory, before
// its first event opens the capture.
const chdirProg = `package main

import (
	"fmt"
	"os"
	"sync"
)

var counter int

func main() {
	if err := os.Chdir(os.TempDir()); err != nil {
		panic(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counter++
		}()
	}
	wg.Wait()
	fmt.Println(counter)
}
`

// racyTest runs racyProg's main as a test: go test runs it in the shadow
// package's directory.
const racyTest = `package main

import "testing"

func TestRace(t *testing.T) { main() }
`

// TestVftGoNeedsAVerdict: a run without a verdict is an error (exit 2),
// never "0 reports" — whether the program skipped the shim's Shutdown or
// its capture went infeasible, and the message says which. A relative
// -trace names the same file wherever the program runs, and one in a
// directory that does not exist is refused before anything is
// instrumented.
func TestVftGoNeedsAVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("vft-go run builds a shadow module")
	}
	t.Setenv("VFT_CHAN_WAIT", "20ms")
	// The relative -trace rows resolve in a directory of their own, which
	// chdirProg's temp directory is not.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	t.Setenv("TMPDIR", t.TempDir())
	// The os.Exit-after-a-verdict row runs into the module the racy run
	// before it kept, so a verdict left there by that run must not stand
	// in for its own.
	kept := t.TempDir()
	for _, tc := range []struct {
		name, src, test string // test, if set, is a _test.go run by vft-go test
		args            []string
		code            int
		want            string
	}{
		{"os.Exit", exitProg, "", nil, 2, "os.Exit or a fatal signal skips"},
		{"infeasible", lossyProg, "", nil, 2, "checking trace: trace: infeasible at #"},
		{"racy, kept", racyProg, "", []string{"-o", kept}, 1, ", 1 reports"},
		{"os.Exit after a verdict", exitProg, "", []string{"-o", kept}, 2, "os.Exit or a fatal signal skips"},
		{"relative -trace, test", racyProg, racyTest, []string{"-trace", "test.trace"}, 1, ", 1 reports"},
		{"relative -trace, chdir", chdirProg, "", []string{"-trace", "chdir.trace"}, 1, ", 1 reports"},
		{"-trace in no directory", racyProg, "", []string{"-trace", filepath.Join("missing", "x.trace")}, 2, "vft-go: -trace " + filepath.Join("missing", "x.trace") + ": stat missing: "},
	} {
		dir := writeVftGoProgram(t, tc.src)
		mode := "run"
		if tc.test != "" {
			mode = "test"
			if err := os.WriteFile(filepath.Join(dir, "main_test.go"), []byte(tc.test), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errOut strings.Builder
		code := RunVftGo(append(append([]string{"-v"}, tc.args...), mode, dir), strings.NewReader(""), &out, &errOut)
		if code != tc.code || !strings.Contains(errOut.String(), tc.want) || strings.Contains(out.String(), "race on") != (tc.code == 1) {
			t.Errorf("%s: exit = %d, want %d and %q\nstdout: %s\nstderr: %s", tc.name, code, tc.code, tc.want, out.String(), errOut.String())
		}
		if tc.code == 2 && strings.HasPrefix(tc.want, "vft-go: -trace") && strings.Contains(errOut.String(), "instrument") {
			t.Errorf("%s: instrumented before refusing -trace:\n%s", tc.name, errOut.String())
		}
	}
	for _, name := range []string{"test.trace", "chdir.trace"} {
		if _, err := os.Stat(rt.MetaPath(name)); err != nil {
			t.Errorf("-trace %s left no sidecar in vft-go's directory: %v", name, err)
		}
	}
}
