package cli

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/hb"
	"repro/internal/trace"
)

// buildCmds compiles every cmd/ binary once into a shared temp dir and
// returns the dir. The smoke tests below run the real executables — flag
// parsing, stream wiring and exit codes included — which the in-process
// unit tests cannot cover.
func buildCmds(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "repro/cmd/...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/...: %v\n%s", err, out)
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/cli -> repo root
}

// runCmd executes bin with args in workDir, feeding stdin, and returns
// (exit code, stdout+stderr).
func runCmd(t *testing.T, workDir, bin string, stdin string, args ...string) (int, string) {
	t.Helper()
	return runCmdBytes(t, workDir, bin, []byte(stdin), args...)
}

// runCmdBytes is runCmd for non-text stdin (binary or gzip trace streams).
func runCmdBytes(t *testing.T, workDir, bin string, stdin []byte, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = workDir
	if len(stdin) != 0 {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", bin, err)
	}
	return code, buf.String()
}

func TestCommandSmoke(t *testing.T) {
	bins := buildCmds(t)
	root := repoRoot(t)
	bin := func(name string) string { return filepath.Join(bins, name) }

	racyTrace := "fork 0 1\nwr 0 0\nwr 1 0\njoin 0 1\n"
	cleanTrace := "fork 0 1\nwr 1 0\njoin 0 1\nrd 0 0\n"

	t.Run("vft-race/racy", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-race"), racyTrace, "-all", "-oracle")
		if code != 1 {
			t.Fatalf("exit %d, want 1\n%s", code, out)
		}
		if !strings.Contains(out, "race") {
			t.Fatalf("no race report in output:\n%s", out)
		}
	})
	t.Run("vft-race/clean", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-race"), cleanTrace, "-all", "-oracle")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "no races detected") {
			t.Fatalf("missing verdict line:\n%s", out)
		}
	})
	t.Run("vft-race/bad-input", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-race"), "frobnicate 1 2\n")
		if code != 2 {
			t.Fatalf("exit %d, want 2\n%s", code, out)
		}
	})

	t.Run("vft-bench", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-bench"), "",
			"-quick", "-iters", "1", "-warmup", "0", "-programs", "series,avrora")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "Geo Mean") {
			t.Fatalf("missing summary row:\n%s", out)
		}
		data, err := os.ReadFile(filepath.Join(work, "BENCH_table1.json"))
		if err != nil {
			t.Fatalf("BENCH_table1.json not written: %v", err)
		}
		var table struct {
			Detectors []string `json:"detectors"`
			Rows      []struct {
				Program     string             `json:"program"`
				BaseSeconds float64            `json:"base_seconds"`
				Overhead    map[string]float64 `json:"overhead"`
			} `json:"rows"`
			GeoMean map[string]float64 `json:"geo_mean"`
		}
		if err := json.Unmarshal(data, &table); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if len(table.Rows) != 2 || len(table.Detectors) == 0 {
			t.Fatalf("unexpected table shape: %+v", table)
		}
		for _, r := range table.Rows {
			if r.BaseSeconds <= 0 || len(r.Overhead) != len(table.Detectors) {
				t.Fatalf("malformed row: %+v", r)
			}
		}
		if len(table.GeoMean) != len(table.Detectors) {
			t.Fatalf("malformed geo_mean: %+v", table.GeoMean)
		}
	})

	// A relative -o: go build runs with the shadow module as its working
	// directory, where the same relative path would name rel/rel/vftbin.
	t.Run("vft-go/relative-o", func(t *testing.T) {
		if testing.Short() {
			t.Skip("vft-go run builds a shadow module")
		}
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-go"), "", "-v", "-o", "rel", "run",
			filepath.Join(root, "internal", "goinstr", "testdata", "corpus", "racy_global_counter"))
		if code != 1 || !strings.Contains(out, "race on counter") {
			t.Fatalf("exit %d, want 1 and a report naming counter\n%s", code, out)
		}
		if !regexp.MustCompile(`(?m)^vft-go: instrument \S+ \(go list \S+\) build \S+ run \S+ check \S+$`).MatchString(out) {
			t.Errorf("-v printed no phase line:\n%s", out)
		}
		var found []string
		filepath.WalkDir(work, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.Name() == "vftbin" {
				found = append(found, path)
			}
			return nil
		})
		if len(found) != 1 || found[0] != filepath.Join(work, "rel", "vftbin") {
			t.Errorf("found binaries %v, want exactly rel/vftbin", found)
		}
	})
}

// TestStreamingCommandSmoke exercises the streaming ingestion surface of
// the real binaries: stdin via "-", binary and gzip trace encodings
// recognized from the stream head (no file extensions involved), in
// vft-race and vft-bench -trace.
func TestStreamingCommandSmoke(t *testing.T) {
	bins := buildCmds(t)
	bin := func(name string) string { return filepath.Join(bins, name) }

	racy := trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0), trace.JoinOp(0, 1),
	}
	clean := trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(1, 0), trace.JoinOp(0, 1), trace.Rd(0, 0),
	}
	encodeBin := func(tr trace.Trace) []byte {
		var b bytes.Buffer
		if err := trace.EncodeBinary(&b, tr); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	gz := func(p []byte) []byte {
		var b bytes.Buffer
		w := gzip.NewWriter(&b)
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	t.Run("vft-race/binary-stdin", func(t *testing.T) {
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-race"), encodeBin(racy), "-")
		if code != 1 || !strings.Contains(out, "race") {
			t.Fatalf("exit %d, want 1 with a report\n%s", code, out)
		}
	})
	t.Run("vft-race/gzip-text-stdin", func(t *testing.T) {
		var txt bytes.Buffer
		trace.Encode(&txt, racy)
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-race"), gz(txt.Bytes()), "-")
		if code != 1 || !strings.Contains(out, "race") {
			t.Fatalf("exit %d, want 1 with a report\n%s", code, out)
		}
	})

	t.Run("vft-race/gzip-binary-stdin", func(t *testing.T) {
		// The headline pipeline: a gzipped binary capture piped into
		// vft-race's stdin, through the whole differential stack.
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-race"), gz(encodeBin(racy)), "-all", "-oracle", "-")
		if code != 1 || !strings.Contains(out, "race") || !strings.Contains(out, "oracle: 1 concurrent conflicting pairs") {
			t.Fatalf("exit %d, want 1 with a report and the oracle line\n%s", code, out)
		}
	})
	t.Run("vft-race/binary-file", func(t *testing.T) {
		work := t.TempDir()
		path := filepath.Join(work, "clean.bin")
		if err := os.WriteFile(path, encodeBin(clean), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runCmd(t, work, bin("vft-race"), "", path)
		if code != 0 || !strings.Contains(out, "no races detected") {
			t.Fatalf("exit %d, want 0 with verdict\n%s", code, out)
		}
	})
	t.Run("vft-race/text-stdin", func(t *testing.T) {
		var txt bytes.Buffer
		trace.Encode(&txt, clean)
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-race"), txt.Bytes(), "-")
		if code != 0 || !strings.Contains(out, "no races detected") {
			t.Fatalf("exit %d, want 0 with verdict\n%s", code, out)
		}
	})

	// The sharded engine's knob is gone, not ignored: -parallel is the flag
	// package's undefined-flag error.
	t.Run("vft-bench/parallel", func(t *testing.T) {
		code, out := runCmd(t, t.TempDir(), bin("vft-bench"), "", "-parallel", "1,2", "-quick")
		if code != 2 || !strings.Contains(out, "flag provided but not defined: -parallel") {
			t.Fatalf("exit %d, want 2 with the undefined-flag message\n%s", code, out)
		}
	})

	t.Run("vft-bench/trace-file", func(t *testing.T) {
		work := t.TempDir()
		path := filepath.Join(work, "clean.bin")
		if err := os.WriteFile(path, encodeBin(clean), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runCmd(t, work, bin("vft-bench"), "",
			"-trace", path, "-iters", "1", "-warmup", "0", "-detectors", "vft-v2")
		if code != 0 || !strings.Contains(out, "ops/sec") {
			t.Fatalf("exit %d, want 0 with throughput\n%s", code, out)
		}
	})
}

// TestRaceOracleComparesOnlyWhatIsPromised: -oracle asserts verdict
// equality only where it is the detector's contract. Eraser's lockset
// warning on a happens-before-ordered trace and a sampled run whose sample
// misses the racy variable are both correct answers, not precision bugs; a
// precise variant whose verdict differs from the oracle's still is one.
func TestRaceOracleComparesOnlyWhatIsPromised(t *testing.T) {
	const ordered = "wr 0 5\nfork 0 1\nwr 1 5\njoin 0 1\nwr 0 5\n"
	const racy = "fork 0 1\nwr 0 5\nwr 1 5\njoin 0 1\n"
	for _, tc := range []struct {
		name, variant, input string
		code                 int
		oracleLine           string
	}{
		{"eraser warns where the oracle sees order", "eraser", ordered, 1, "oracle: 0 concurrent conflicting pairs"},
		{"sample misses the racy variable", "sampled:0.5", racy, 0, "oracle: 1 concurrent conflicting pairs"},
		{"sample holds the racy variable", "sampled:1", racy, 1, "oracle: 1 concurrent conflicting pairs"},
		{"precise control", "djit", racy, 1, "oracle: 1 concurrent conflicting pairs"},
	} {
		code, out, errOut := runRace(t, []string{"-d", tc.variant, "-oracle"}, tc.input)
		if code != tc.code || !strings.Contains(out, tc.oracleLine) || strings.Contains(errOut, "precision bug") {
			t.Errorf("%s: exit %d, want %d with %q and no precision-bug verdict\nstdout: %s\nstderr: %s",
				tc.name, code, tc.code, tc.oracleLine, out, errOut)
		}
	}

	// Forced mismatches: the comparison Race makes, with a detector
	// verdict that cannot be right.
	low := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 5), trace.Wr(1, 5)}
	races := hb.Analyze(low).Races
	for _, tc := range []struct {
		variant       string
		want, precise bool
	}{
		{"vft-v2", true, true}, // a silent precise detector would exit 2
		{"ft-cas", true, true},
		{"sampled:1", true, true},
		{"sampled:0", false, true}, // and so would a sampled one reporting outside its sample
		{"eraser", false, false},
	} {
		if want, precise := oracleVerdict(tc.variant, low, races); want != tc.want || precise != tc.precise {
			t.Errorf("oracleVerdict(%s) = (%v, %v), want (%v, %v)", tc.variant, want, precise, tc.want, tc.precise)
		}
	}
	if want, precise := oracleVerdict("vft-v2", low, nil); want || !precise {
		t.Errorf("oracleVerdict(vft-v2) on a race-free trace = (%v, %v), want (false, true)", want, precise)
	}
}
