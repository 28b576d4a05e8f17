package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/trace"
)

func runRace(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = Race(args, strings.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestRaceDetectsFromStdin(t *testing.T) {
	code, out, _ := runRace(t, nil, "fork 0 1\nwr 0 0\nwr 1 0\n")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "Write-Write Race") {
		t.Fatalf("output: %q", out)
	}
}

func TestRaceCleanTrace(t *testing.T) {
	code, out, _ := runRace(t, nil, "fork 0 1\nacq 0 0\nwr 0 0\nrel 0 0\nacq 1 0\nwr 1 0\nrel 1 0\n")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(out, "no races detected") {
		t.Fatalf("output: %q", out)
	}
}

func TestRaceAllAndOracle(t *testing.T) {
	code, out, errOut := runRace(t, []string{"-all", "-oracle"}, "fork 0 1\nwr 0 0\nrd 1 0\n")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	for _, want := range []string{"vft-v1", "vft-v2", "ft-cas", "oracle: 1 concurrent conflicting pairs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRaceFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte("wr 0 0\nrd 0 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, _ := runRace(t, []string{path}, "")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
}

func TestRaceErrors(t *testing.T) {
	// Syntax error.
	if code, _, _ := runRace(t, nil, "frob 0 0\n"); code != 2 {
		t.Fatalf("syntax error exit = %d, want 2", code)
	}
	// Infeasible trace.
	if code, _, _ := runRace(t, nil, "rel 0 0\n"); code != 2 {
		t.Fatalf("infeasible exit = %d, want 2", code)
	}
	// Missing file.
	if code, _, _ := runRace(t, []string{"/nonexistent/file"}, ""); code != 2 {
		t.Fatalf("missing file exit = %d, want 2", code)
	}
	// Unknown detectors, the retired lockset and vector-clock variants
	// among them: the message lists the five variants.
	for _, name := range []string{"nope", "eraser", "djit"} {
		code, _, errOut := runRace(t, []string{"-d", name}, "rd 0 0\n")
		if code != 2 || !strings.Contains(errOut, fmt.Sprint(core.Variants())) {
			t.Fatalf("-d %s: exit = %d, stderr %q; want exit 2 and the variant list %v", name, code, errOut, core.Variants())
		}
	}
	// Bad flag.
	if code, _, _ := runRace(t, []string{"-definitely-not-a-flag"}, ""); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
	// A barrier of fewer than one party: an error, as vft-server's
	// parties= makes it, not the default count.
	for _, n := range []string{"0", "-5"} {
		code, out, errOut := runRace(t, []string{"-parties", n}, "fork 0 1\nwr 1 1\nbarrier 0 9\nbarrier 1 9\nrd 0 1\n")
		if code != 2 || out != "" || !strings.Contains(errOut, "-parties") {
			t.Fatalf("-parties %s: exit = %d, stdout %q, stderr %q; want exit 2 naming -parties", n, code, out, errOut)
		}
	}
	// Two traces: checking the first and calling the pair clean would
	// certify a file that was never read.
	dir := t.TempDir()
	clean, racy := filepath.Join(dir, "clean.txt"), filepath.Join(dir, "racy.txt")
	for path, text := range map[string]string{clean: "wr 0 0\nrd 0 0\n", racy: "fork 0 1\nwr 0 0\nwr 1 0\n"} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code, out, errOut := runRace(t, []string{clean, racy}, ""); code != 2 || out != "" || !strings.Contains(errOut, "usage") {
		t.Fatalf("two traces: exit = %d, stdout %q, stderr %q; want exit 2 and a usage line", code, out, errOut)
	}
}

func TestRaceBarrierParties(t *testing.T) {
	in := "fork 0 1\nfork 0 2\nwr 0 0\nbarrier 0 0\nbarrier 1 0\nbarrier 2 0\nrd 1 0\n"
	code, _, _ := runRace(t, []string{"-parties", "3"}, in)
	if code != 0 {
		t.Fatalf("3-party barrier trace: exit = %d, want 0", code)
	}
}

func TestBenchQuickSubset(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Bench([]string{"-quick", "-iters", "1", "-warmup", "0", "-json", "",
		"-programs", "series,fop", "-detectors", "vft-v2,ft-cas"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{"Table 1", "series", "fop", "Geo Mean", "CAS",
		"Rule mix under v2", "[Read Shared Same Epoch]", "lock-free fast paths"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBenchUnknownProgram(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := Bench([]string{"-programs", "doom"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// The differential check vft-race -all -oracle runs, on generated traces
// (named for cli.CheckOne, the wrapper the fuzz driver called it through).
func TestCheckOneAgreesWithSuiteInvariants(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 40
	for seed := int64(0); seed < 50; seed++ {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		if err := conformance.CheckTrace(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// There is no divergence to minimize in a correct stack, so Shrink must
// hand a healthy trace back unchanged.
func TestShrinkIdentityOnHealthyTrace(t *testing.T) {
	tr := trace.Generate(rand.New(rand.NewSource(1)), trace.DefaultGenConfig())
	if got := conformance.Shrink(tr); len(got) != len(tr) {
		t.Fatalf("Shrink changed a healthy trace: %d -> %d ops", len(tr), len(got))
	}
}

func TestRaceExplain(t *testing.T) {
	in := "fork 0 1\nacq 0 0\nwr 0 0\nrel 0 0\nacq 1 0\nrd 1 0\nrel 1 0\nwr 1 1\nwr 0 1\n"
	code, out, _ := runRace(t, []string{"-explain"}, in)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (x1 races)", code)
	}
	for _, want := range []string{"conflicting pairs", "ordered", "lock order on m0", "RACE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchCSV(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Bench([]string{"-quick", "-iters", "1", "-warmup", "0", "-json", "",
		"-programs", "series", "-detectors", "vft-v2", "-format", "csv"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.HasPrefix(s, "program,suite,base_seconds,vft-v2_overhead") {
		t.Fatalf("csv header wrong: %s", s)
	}
	if !strings.Contains(s, "series,javagrande,") || !strings.Contains(s, "geo_mean") {
		t.Fatalf("csv body wrong: %s", s)
	}
	if code := Bench([]string{"-format", "xml"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad format exit = %d", code)
	}
}

// TestServeMetrics scrapes the -metrics-addr endpoint vft-bench mounts,
// after one bench cell has frozen its detector counters into the
// registry: /metrics is the registry's snapshot, /debug/vars the expvar
// dump carrying it under the published name.
func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := harness.Run(harness.Options{Iters: 1, Quick: true,
		Detectors: []string{"vft-v2"}, Programs: []string{"montecarlo"}, Registry: reg}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	shutdown, err := serveMetrics("127.0.0.1:0", "vft-bench", reg, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	m := regexp.MustCompile(`http://(\S+)/metrics`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no metrics address announced: %q", stderr.String())
	}
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + m[1] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	snap := obs.NewSnapshot()
	get("/metrics", &snap)
	const cell = "montecarlo.vft-v2.detector."
	reads, fast, slow := snap.Counters[cell+"reads.total"], snap.Counters[cell+"reads.fast"], snap.Counters[cell+"reads.slow"]
	if reads == 0 || fast+slow != reads {
		t.Errorf("/metrics: %sreads fast %d + slow %d, total %d", cell, fast, slow, reads)
	}
	if snap.Gauges["bench.cells_done"] != 1 {
		t.Errorf("/metrics: bench.cells_done = %d, want 1", snap.Gauges["bench.cells_done"])
	}
	var vars map[string]json.RawMessage
	get("/debug/vars", &vars)
	if _, ok := vars["vft-bench"]; !ok {
		t.Errorf("/debug/vars has no vft-bench variable")
	}
}

// TestFTCASTidLimitIsInputError: every CLI path that replays a materialized
// trace through ft-cas validates under its 8-bit thread-id ceiling first, so
// a valid 300-thread trace is a positioned input error (exit 2), never a
// Pack32 panic inside a handler.
func TestFTCASTidLimitIsInputError(t *testing.T) {
	var sb strings.Builder
	for u := 1; u < 300; u++ {
		fmt.Fprintf(&sb, "fork 0 %d\n", u)
	}
	sb.WriteString("wr 299 1\nwr 0 1\n")
	path := filepath.Join(t.TempDir(), "wide.trace")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(stdout, stderr io.Writer) int{
		"vft-race -d ft-cas":    func(o, e io.Writer) int { return Race([]string{"-d", "ft-cas", path}, nil, o, e) },
		"vft-bench -trace":      func(o, e io.Writer) int { return Bench([]string{"-trace", path, "-iters", "1", "-warmup", "0"}, o, e) },
		"vft-race -all -oracle": func(o, e io.Writer) int { return Race([]string{"-all", "-oracle", path}, nil, o, e) },
	} {
		var out, errBuf bytes.Buffer
		if code := run(&out, &errBuf); code != 2 || !strings.Contains(errBuf.String(), "thread id 255 outside 0..254") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming thread id 255", name, code, errBuf.String())
		}
	}
}

// TestHelpGolden pins every command's -h output, so a flag added, dropped
// or reworded is a reviewed diff of testdata/<command>.help. To accept a
// change: go run ./cmd/<command> -h 2> internal/cli/testdata/<command>.help
func TestHelpGolden(t *testing.T) {
	for name, run := range map[string]func(stderr io.Writer) int{
		"vft-race":   func(e io.Writer) int { return Race([]string{"-h"}, nil, io.Discard, e) },
		"vft-bench":  func(e io.Writer) int { return Bench([]string{"-h"}, io.Discard, e) },
		"vft-server": func(e io.Writer) int { return Server([]string{"-h"}, io.Discard, e) },
		"vft-go":     func(e io.Writer) int { return RunVftGo([]string{"-h"}, nil, io.Discard, e) },
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".help"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if code := run(&got); code != 2 {
			t.Errorf("%s -h: exit %d, want 2", name, code)
		}
		if got.String() != string(want) {
			t.Errorf("%s -h differs from testdata/%s.help; got:\n%s", name, name, got.String())
		}
	}
}
