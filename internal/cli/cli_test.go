package cli

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	// Unknown detector.
	if code, _, _ := runRace(t, []string{"-d", "nope"}, "rd 0 0\n"); code != 2 {
		t.Fatalf("unknown detector exit = %d, want 2", code)
	}
	// Bad flag.
	if code, _, _ := runRace(t, []string{"-definitely-not-a-flag"}, ""); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
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
		"-programs", "series,fop", "-detectors", "vft-v2,djit"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{"Table 1", "series", "fop", "Geo Mean", "DJIT+"} {
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

func TestBenchAblation(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Bench([]string{"-quick", "-iters", "1", "-warmup", "0", "-json", "",
		"-programs", "series", "-detectors", "vft-v2", "-ablation"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "[Write Shared] keeps R") {
		t.Fatalf("ablation section missing:\n%s", out.String())
	}
}

func TestStatsQuick(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Stats([]string{"-quick", "-per-program"}, strings.NewReader(""), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{"Read Same Epoch", "lock-free fast paths", "sparse", "serialized"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestFuzzSmallRun(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Fuzz([]string{"-n", "50", "-ops", "30"}, strings.NewReader(""), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "no divergence") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestCheckOneAgreesWithSuiteInvariants(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 40
	for seed := int64(0); seed < 50; seed++ {
		tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
		if err := CheckOne(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Shrink keeps divergence... there is none in a correct stack, so exercise
// it on a synthetic predicate instead: a trace that "diverges" as long as
// it contains a specific racy pair. We simulate by checking that Shrink on
// a healthy trace is the identity.
func TestShrinkIdentityOnHealthyTrace(t *testing.T) {
	tr := trace.Generate(rand.New(rand.NewSource(1)), trace.DefaultGenConfig())
	got := Shrink(tr)
	if len(got) != len(tr) {
		t.Fatalf("Shrink changed a healthy trace: %d -> %d ops", len(tr), len(got))
	}
}

func TestThrashAndLadderTracesAreFeasibleAndRaceFree(t *testing.T) {
	for _, tr := range []trace.Trace{ThrashTrace(50), JoinLadder(50)} {
		if err := trace.Validate(tr); err != nil {
			t.Fatal(err)
		}
		if err := CheckOne(tr); err != nil {
			t.Fatal(err)
		}
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

func TestStatsMemory(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Stats([]string{"-quick", "-memory"}, strings.NewReader(""), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{"Shadow-state footprint", "djit (KB)", "djit/vft-v2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
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

func TestRunProg(t *testing.T) {
	dir := t.TempDir()
	racy := filepath.Join(dir, "racy.trace")
	os.WriteFile(racy, []byte("fork 0 1\nwr 0 0\nwr 1 0\njoin 0 1\n"), 0o644)
	clean := filepath.Join(dir, "clean.trace")
	os.WriteFile(clean, []byte("fork 0 1\nwr 1 0\njoin 0 1\nrd 0 0\n"), 0o644)
	bad := filepath.Join(dir, "bad.trace")
	os.WriteFile(bad, []byte("frobnicate 1 2\n"), 0o644)

	// A text trace needs no mode flag.
	var out, errBuf bytes.Buffer
	if code := RunProg([]string{racy}, strings.NewReader(""), &out, &errBuf); code != 1 {
		t.Fatalf("racy: exit = %d (stderr %s)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "race") {
		t.Fatalf("racy output: %q", out.String())
	}

	out.Reset()
	if code := RunProg([]string{"-runs", "2", clean}, strings.NewReader(""), &out, &errBuf); code != 0 {
		t.Fatalf("clean: exit = %d", code)
	}
	if !strings.Contains(out.String(), "no races detected over 2 run(s)") {
		t.Fatalf("clean output: %q", out.String())
	}

	out.Reset()
	if code := RunProg([]string{"-d", "none", clean}, strings.NewReader(""), &out, &errBuf); code != 0 {
		t.Fatalf("uninstrumented: exit = %d", code)
	}
	if strings.Contains(out.String(), "no races") {
		t.Fatalf("uninstrumented run should not print a verdict: %q", out.String())
	}

	if code := RunProg([]string{bad}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("malformed trace: exit = %d", code)
	}
	if code := RunProg([]string{"/no/such/file.trace"}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("missing file: exit = %d", code)
	}
	if code := RunProg(nil, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("no args: exit = %d", code)
	}
	if code := RunProg([]string{"-d", "nope", clean}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("bad detector: exit = %d", code)
	}

	// A run count below 1 would certify a trace that never ran.
	for _, n := range []string{"0", "-1"} {
		out.Reset()
		errBuf.Reset()
		if code := RunProg([]string{"-runs", n, clean}, strings.NewReader(""), &out, &errBuf); code != 2 ||
			out.Len() != 0 || strings.Count(errBuf.String(), "\n") != 1 {
			t.Fatalf("-runs %s: exit = %d, stdout %q, stderr %q; want exit 2 and one line on stderr",
				n, code, out.String(), errBuf.String())
		}
	}

	// The two flags that told program mode from trace mode went with it.
	for _, flag := range []string{"-trace", "-static"} {
		errBuf.Reset()
		if code := RunProg([]string{flag, clean}, strings.NewReader(""), &out, &errBuf); code != 2 ||
			!strings.Contains(errBuf.String(), "flag provided but not defined: "+flag) {
			t.Fatalf("%s: exit = %d, stderr %q; want exit 2 with the undefined-flag message", flag, code, errBuf.String())
		}
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
		"vft-race -d ft-cas": func(o, e io.Writer) int { return Race([]string{"-d", "ft-cas", path}, nil, o, e) },
		"vft-bench -trace":   func(o, e io.Writer) int { return Bench([]string{"-trace", path, "-iters", "1", "-warmup", "0"}, o, e) },
		"vft-fuzz -replay":   func(o, e io.Writer) int { return Fuzz([]string{"-replay", path}, nil, o, e) },
	} {
		var out, errBuf bytes.Buffer
		if code := run(&out, &errBuf); code != 2 || !strings.Contains(errBuf.String(), "thread id 255 outside 0..254") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming thread id 255", name, code, errBuf.String())
		}
	}
}
