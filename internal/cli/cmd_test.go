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

	t.Run("vft-run/racy", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-run"), "",
			filepath.Join(root, "examples", "minilang", "account.vft"))
		if code != 1 {
			t.Fatalf("exit %d, want 1 (account.vft has a racy audit counter)\n%s", code, out)
		}
	})
	t.Run("vft-run/clean", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-run"), "",
			filepath.Join(root, "examples", "minilang", "philosophers.vft"))
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "no races detected") {
			t.Fatalf("missing verdict line:\n%s", out)
		}
	})

	t.Run("vft-stats", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-stats"), "", "-quick")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "Analysis-rule frequency") {
			t.Fatalf("missing table header:\n%s", out)
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

	t.Run("vft-fuzz", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-fuzz"), "",
			"-n", "25", "-schedules", "5", "-seed", "7")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "no divergence") || !strings.Contains(out, "schedules explored") {
			t.Fatalf("missing summary lines:\n%s", out)
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
// recognized from the stream head (no file extensions involved), trace
// re-execution in vft-run, snapshot piping in vft-stats and trace replay
// in vft-fuzz.
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

	t.Run("vft-run/gzip-binary-stdin", func(t *testing.T) {
		// The headline pipeline: a gzipped binary capture piped into
		// vft-run's stdin re-executes as a live program and finds the race.
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-run"), gz(encodeBin(racy)), "-")
		if code != 1 || !strings.Contains(out, "race") {
			t.Fatalf("exit %d, want 1 with a report\n%s", code, out)
		}
	})
	t.Run("vft-run/binary-file", func(t *testing.T) {
		work := t.TempDir()
		path := filepath.Join(work, "clean.bin")
		if err := os.WriteFile(path, encodeBin(clean), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runCmd(t, work, bin("vft-run"), "", "-runs", "2", path)
		if code != 0 || !strings.Contains(out, "no races detected") {
			t.Fatalf("exit %d, want 0 with verdict\n%s", code, out)
		}
	})
	t.Run("vft-run/trace-flag-text-stdin", func(t *testing.T) {
		var txt bytes.Buffer
		trace.Encode(&txt, clean)
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-run"), txt.Bytes(), "-trace", "-")
		if code != 0 || !strings.Contains(out, "no races detected") {
			t.Fatalf("exit %d, want 0 with verdict\n%s", code, out)
		}
	})
	t.Run("vft-run/stdin-multi-runs-rejected", func(t *testing.T) {
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-run"), encodeBin(clean), "-runs", "2", "-")
		if code != 2 || !strings.Contains(out, "re-readable") {
			t.Fatalf("exit %d, want 2 with an explanation\n%s", code, out)
		}
	})

	t.Run("vft-run/parallel-racy-stdin", func(t *testing.T) {
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-run"), gz(encodeBin(racy)),
			"-parallel", "4", "-")
		if code != 1 || !strings.Contains(out, "race") {
			t.Fatalf("exit %d, want 1 with a report\n%s", code, out)
		}
	})
	t.Run("vft-run/parallel-clean-text", func(t *testing.T) {
		var txt bytes.Buffer
		trace.Encode(&txt, clean)
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-run"), txt.Bytes(),
			"-trace", "-parallel", "0", "-")
		if code != 0 || !strings.Contains(out, "parallel offline check") {
			t.Fatalf("exit %d, want 0 with verdict\n%s", code, out)
		}
	})
	t.Run("vft-run/parallel-rejects-runs", func(t *testing.T) {
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-run"), encodeBin(clean),
			"-parallel", "2", "-runs", "3", "-")
		if code != 2 || !strings.Contains(out, "-runs must be 1") {
			t.Fatalf("exit %d, want 2 with an explanation\n%s", code, out)
		}
	})
	t.Run("vft-run/parallel-rejects-program", func(t *testing.T) {
		code, out := runCmd(t, t.TempDir(), bin("vft-run"), "thread 0 { wr 0 }\n",
			"-parallel", "2", "-")
		if code != 2 || !strings.Contains(out, "trace inputs") {
			t.Fatalf("exit %d, want 2 with an explanation\n%s", code, out)
		}
	})

	t.Run("vft-bench/parallel", func(t *testing.T) {
		work := t.TempDir()
		code, out := runCmd(t, work, bin("vft-bench"), "",
			"-parallel", "1,2", "-quick", "-iters", "1", "-warmup", "0", "-programs", "pmd")
		if code != 0 || !strings.Contains(out, "Parallel checking") {
			t.Fatalf("exit %d, want 0 with the table\n%s", code, out)
		}
		data, err := os.ReadFile(filepath.Join(work, "BENCH_parallel.json"))
		if err != nil {
			t.Fatalf("BENCH_parallel.json not written: %v", err)
		}
		var table struct {
			Variant string `json:"variant"`
			Workers []int  `json:"workers"`
			Rows    []struct {
				Program string             `json:"program"`
				Ops     int                `json:"ops"`
				Seconds map[string]float64 `json:"seconds"`
				Speedup map[string]float64 `json:"speedup"`
			} `json:"rows"`
		}
		if err := json.Unmarshal(data, &table); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if table.Variant != "vft-v2" || len(table.Rows) != 1 || table.Rows[0].Program != "pmd" {
			t.Fatalf("unexpected table shape: %+v", table)
		}
		if table.Rows[0].Seconds["1"] <= 0 || table.Rows[0].Speedup["2"] <= 0 {
			t.Fatalf("malformed row: %+v", table.Rows[0])
		}
	})

	t.Run("vft-stats/snapshot-gzip-stdin", func(t *testing.T) {
		snap := []byte(`{"counters":{"demo.events":42}}`)
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-stats"), gz(snap), "-snapshot", "-")
		if code != 0 || !strings.Contains(out, "demo.events") {
			t.Fatalf("exit %d, want 0 with the counter\n%s", code, out)
		}
	})

	t.Run("vft-fuzz/replay-stdin", func(t *testing.T) {
		code, out := runCmdBytes(t, t.TempDir(), bin("vft-fuzz"), gz(encodeBin(racy)),
			"-replay", "-", "-schedules", "3")
		if code != 0 || !strings.Contains(out, "agrees") {
			t.Fatalf("exit %d, want 0 with agreement\n%s", code, out)
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
