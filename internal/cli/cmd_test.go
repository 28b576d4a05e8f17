package cli

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

// cmds holds the cmd/ binaries, built once per test process by buildCmds
// and removed by TestMain.
var cmds struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cmds.dir != "" {
		os.RemoveAll(cmds.dir)
	}
	os.Exit(code)
}

// buildCmds compiles every cmd/ binary once into a shared temp dir and
// returns the dir. The smoke tests below run the real executables — flag
// parsing, stream wiring and exit codes included — which the in-process
// unit tests cannot cover.
func buildCmds(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmds.once.Do(func() {
		if cmds.dir, cmds.err = os.MkdirTemp("", "vft-cmds"); cmds.err != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", cmds.dir+string(os.PathSeparator), "repro/cmd/...")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			cmds.err = fmt.Errorf("go build cmd/...: %v\n%s", err, out)
		}
	})
	if cmds.err != nil {
		t.Fatal(cmds.err)
	}
	return cmds.dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/cli -> repo root
}

// runCmd executes bin with args in workDir, feeding stdin, and returns its
// exit code, its stdout+stderr, and its peak resident set in MiB where
// that rose above this process's own (0 otherwise, and off Linux).
func runCmd(t *testing.T, workDir, bin string, stdin []byte, args ...string) (int, string, int64) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = workDir
	if len(stdin) != 0 {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	floorKiB := lowerHighWater()
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", bin, err)
	}
	var peakMiB int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && floorKiB >= 0 && int64(ru.Maxrss) > floorKiB {
		peakMiB = int64(ru.Maxrss) >> 10 // KiB on Linux
	}
	return code, buf.String(), peakMiB
}

// lowerHighWater resets this process's peak RSS to its current, freed size
// and returns it in KiB, or -1 where that is not possible. Linux starts a
// child's max RSS at that mark (exec records the address space the two
// shared until then), so a child's own peak shows only above it — under
// -race, whose shadow memory stays resident, above about 135 MiB.
func lowerHighWater() int64 {
	if runtime.GOOS != "linux" {
		return -1
	}
	debug.FreeOSMemory()
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		return -1
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64); err == nil {
				return kib
			}
		}
	}
	return -1
}

func TestCommandSmoke(t *testing.T) {
	bins := buildCmds(t)
	root := repoRoot(t)
	bin := func(name string) string { return filepath.Join(bins, name) }

	racyTrace := []byte("fork 0 1\nwr 0 0\nwr 1 0\njoin 0 1\n")
	cleanTrace := []byte("fork 0 1\nwr 1 0\njoin 0 1\nrd 0 0\n")

	t.Run("vft-race/racy", func(t *testing.T) {
		work := t.TempDir()
		code, out, _ := runCmd(t, work, bin("vft-race"), racyTrace, "-all", "-oracle")
		if code != 1 {
			t.Fatalf("exit %d, want 1\n%s", code, out)
		}
		if !strings.Contains(out, "race") {
			t.Fatalf("no race report in output:\n%s", out)
		}
	})
	t.Run("vft-race/clean", func(t *testing.T) {
		work := t.TempDir()
		code, out, _ := runCmd(t, work, bin("vft-race"), cleanTrace, "-all", "-oracle")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "no races detected") {
			t.Fatalf("missing verdict line:\n%s", out)
		}
	})
	t.Run("vft-race/bad-input", func(t *testing.T) {
		work := t.TempDir()
		code, out, _ := runCmd(t, work, bin("vft-race"), []byte("frobnicate 1 2\n"))
		if code != 2 {
			t.Fatalf("exit %d, want 2\n%s", code, out)
		}
	})

	t.Run("vft-bench", func(t *testing.T) {
		work := t.TempDir()
		code, out, _ := runCmd(t, work, bin("vft-bench"), nil,
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
	// The program's single wg.Add(2) precedes both go statements, so no
	// happens-before edge the Go-sync lowering invents can hide its race.
	t.Run("vft-go/relative-o", func(t *testing.T) {
		if testing.Short() {
			t.Skip("vft-go run builds a shadow module")
		}
		work := t.TempDir()
		// The second run finds the first's record in the kept module, which
		// needs a release toolchain and the build ID of a Linux executable.
		details := []string{`go list \S+`, `kept: no go command`}
		if runtime.GOOS != "linux" || !strings.HasPrefix(runtime.Version(), "go1.") {
			details = details[:1]
		}
		for _, detail := range details {
			code, out, _ := runCmd(t, work, bin("vft-go"), nil, "-v", "-o", "rel", "run",
				filepath.Join(root, "internal", "goinstr", "testdata", "corpus", "racy_lock_wrong_mutex"))
			if code != 1 || !strings.Contains(out, "race on x main.go:") {
				t.Fatalf("exit %d, want 1 and a report naming x\n%s", code, out)
			}
			// The program checks itself as it runs: no check phase follows.
			if !regexp.MustCompile(`(?m)^vft-go: instrument \S+ \(` + detail + `\) build \S+ run \S+$`).MatchString(out) {
				t.Errorf("-v printed no phase line with (%s):\n%s", detail, out)
			}
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

	// -sample 1 is the sampling tier at rate 1, which reports exactly what
	// the precise default does; -sample-seed 0 is the default seed. Both
	// runs reuse one kept module.
	t.Run("vft-go/sample-1-seed-0", func(t *testing.T) {
		if testing.Short() {
			t.Skip("vft-go run builds a shadow module")
		}
		work := t.TempDir()
		prog := filepath.Join(root, "internal", "goinstr", "testdata", "corpus", "racy_lock_wrong_mutex")
		var canon [2][]string
		for i, flags := range [][]string{nil, {"-sample", "1", "-sample-seed", "0"}} {
			args := append(flags[:len(flags):len(flags)], "-o", "kept", "run", prog)
			code, out, _ := runCmd(t, work, bin("vft-go"), nil, args...)
			if code != 1 {
				t.Fatalf("%v: exit %d, want 1\n%s", args, code, out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "race on ") {
					canon[i] = append(canon[i], line)
				}
			}
		}
		if len(canon[0]) == 0 || strings.Join(canon[0], "\n") != strings.Join(canon[1], "\n") {
			t.Errorf("-sample 1 -sample-seed 0 printed %q, the default run %q", canon[1], canon[0])
		}
	})
}

// TestToolsLeaveCaptureAlone: every command links the vft-go shim through
// internal/goinstr, and the shim is inert outside an instrumented
// program. With VFT_TRACE naming the very capture vft-race is asked to
// check, the capture is read intact — exit 1 with the race, the file
// byte-identical — and a VFT_TRACE path that does not exist is created by
// no command.
func TestToolsLeaveCaptureAlone(t *testing.T) {
	bins := buildCmds(t)
	work := t.TempDir()
	var capture bytes.Buffer
	if err := trace.EncodeBinary(&capture, trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0), trace.JoinOp(0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(work, "run.bin")
	if err := os.WriteFile(f, capture.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Setenv("VFT_TRACE", f)
	code, out, _ := runCmd(t, work, filepath.Join(bins, "vft-race"), nil, f)
	if code != 1 || !strings.Contains(out, "race #0 on x0") {
		t.Errorf("vft-race %s with VFT_TRACE=%[1]s: exit %d, want 1 with the race\n%s", f, code, out)
	}
	if got, err := os.ReadFile(f); err != nil || !bytes.Equal(got, capture.Bytes()) {
		t.Errorf("vft-race changed the capture it checked: %d bytes, was %d (%v)", len(got), capture.Len(), err)
	}

	missing := filepath.Join(work, "missing.bin")
	t.Setenv("VFT_TRACE", missing)
	for _, name := range []string{"vft-race", "vft-bench", "vft-server", "vft-go"} {
		runCmd(t, work, filepath.Join(bins, name), nil, "-h")
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Fatalf("%s -h with VFT_TRACE=%s: %v", name, missing, err)
		}
	}
}

// chanMill is a deterministic send-heavy workload: rounds of buffered
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

// raceOutput is what vft-race prints for these reports of an ops-long
// trace, and its exit code.
func raceOutput(reports []verifiedft.Report, ops int) (int, string) {
	if len(reports) == 0 {
		return 0, fmt.Sprintf("[vft-v2] no races detected (%d operations)\n", ops)
	}
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintln(&b, r)
	}
	return 1, b.String()
}

// TestStreamingCommandSmoke exercises the ingestion surface of the real
// binaries: stdin via "-", binary and gzip trace encodings recognized from
// the stream head (no file extensions involved), hostile ids checked in
// bounded memory, and reports that must equal the library's.
func TestStreamingCommandSmoke(t *testing.T) {
	bins := buildCmds(t)

	encodeBin := func(tr trace.Trace) []byte {
		var b bytes.Buffer
		if err := trace.EncodeBinary(&b, tr); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	encodeText := func(tr trace.Trace) []byte {
		var b bytes.Buffer
		if err := trace.Encode(&b, tr); err != nil {
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

	racy := trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0), trace.JoinOp(0, 1),
	}
	clean := trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(1, 0), trace.JoinOp(0, 1), trace.Rd(0, 0),
	}
	locked := trace.Trace{
		trace.ForkOp(0, 1), trace.Acq(1, 0), trace.Wr(1, 0), trace.Rel(1, 0), trace.JoinOp(0, 1), trace.Rd(0, 0),
	}
	// 300 threads: valid for 16-bit tids, beyond FT-CAS's 8-bit format.
	var wide bytes.Buffer
	for u := 1; u < 300; u++ {
		fmt.Fprintf(&wide, "fork 0 %d\n", u)
	}
	wide.WriteString("wr 299 1\nwr 0 1\n")
	// One huge variable id (racy), one huge thread id (racy), one huge
	// lock id (clean).
	sparse := []byte("fork 0 1\nwr 1 2000000000\nwr 0 2000000000\n")
	bigTid := []byte("fork 0 65000\nwr 65000 1\nwr 0 1\n")
	bigLock := []byte("acq 0 16000000\nrel 0 16000000\n")

	type row struct {
		name      string
		bin       string // "" is vft-race
		args      []string
		stdin     []byte
		file      []byte // written to a file whose path ends args
		exit      int
		out       string // the output contains it...
		exact     bool   // ...or is exactly it
		maxRSSMiB int64  // 0: unchecked
	}
	rows := []row{
		{name: "vft-race/binary-stdin", args: []string{"-"}, stdin: encodeBin(racy), exit: 1, out: "race"},
		{name: "vft-race/gzip-text-stdin", args: []string{"-"}, stdin: gz(encodeText(racy)), exit: 1, out: "race"},
		// The headline pipeline: a gzipped binary capture piped into
		// vft-race's stdin, through the whole differential stack.
		{name: "vft-race/gzip-binary-stdin", args: []string{"-all", "-oracle", "-"}, stdin: gz(encodeBin(racy)),
			exit: 1, out: "oracle: 1 concurrent conflicting pairs"},
		{name: "vft-race/gzip-binary-clean", args: []string{"-"}, stdin: gz(encodeBin(locked)), exit: 0, out: "no races detected"},
		{name: "vft-race/binary-file", file: encodeBin(clean), exit: 0, out: "no races detected"},
		{name: "vft-race/text-stdin", args: []string{"-"}, stdin: encodeText(clean), exit: 0, out: "no races detected"},
		{name: "vft-race/300-threads/ft-cas", args: []string{"-d", "ft-cas", "-"}, stdin: wide.Bytes(),
			exit: 2, out: "thread id 255 outside 0..254"},
		{name: "vft-race/300-threads/ft-mutex", args: []string{"-d", "ft-mutex", "-"}, stdin: wide.Bytes(),
			exit: 1, out: "Write-Write Race"},
		{name: "vft-race/sparse-var/all-oracle", args: []string{"-all", "-oracle", "-"}, stdin: sparse,
			exit: 1, out: "oracle: 1 concurrent conflicting pairs", maxRSSMiB: 64},
		{name: "vft-race/huge-lock/all-oracle", args: []string{"-all", "-oracle", "-"}, stdin: bigLock,
			exit: 0, out: "oracle: 0 concurrent conflicting pairs", maxRSSMiB: 64},
		// The sharded engine's knob is gone, not ignored: -parallel is the
		// flag package's undefined-flag error.
		{name: "vft-bench/parallel", bin: "vft-bench", args: []string{"-parallel", "1,2", "-quick"},
			exit: 2, out: "flag provided but not defined: -parallel"},
		{name: "vft-bench/trace-file", bin: "vft-bench", args: []string{"-iters", "1", "-warmup", "0", "-detectors", "vft-v2", "-trace"},
			file: encodeBin(clean), exit: 0, out: "ops/sec"},
	}
	for _, d := range []string{"vft-v2", "vft-v1"} {
		rows = append(rows,
			row{name: "vft-race/sparse-var/" + d, args: []string{"-d", d, "-"}, stdin: sparse,
				exit: 1, out: "x2000000000", maxRSSMiB: 64},
			row{name: "vft-race/huge-tid/" + d, args: []string{"-d", d, "-"}, stdin: bigTid,
				exit: 1, out: "prior access 65000@1", maxRSSMiB: 64},
			row{name: "vft-race/huge-lock/" + d, args: []string{"-d", d, "-"}, stdin: bigLock,
				exit: 0, out: "no races detected", maxRSSMiB: 64})
	}

	// -chancaps reaches the check: a channel-heavy trace, infeasible
	// without its capacities, prints exactly the library's reports.
	mill := chanMill(400)
	millReports, err := verifiedft.CheckTrace(mill,
		verifiedft.WithChanCapacities(map[verifiedft.LockID]int{0: 2, 1: 0}))
	if err != nil {
		t.Fatal(err)
	}
	exit, out := raceOutput(millReports, len(mill))
	rows = append(rows, row{name: "vft-race/chancaps", args: []string{"-chancaps", "0:2,1:0"}, file: encodeBin(mill),
		exit: exit, out: out, exact: true})

	// Sampling is not a variant: every former -d sampled:<rate> spelling
	// is an unknown variant, and the error names the five that exist.
	for _, rate := range []float64{1, 0.5, 0.1, 0.01, 0} {
		variant := fmt.Sprintf("sampled:%v", rate)
		rows = append(rows, row{name: "vft-race/" + variant, args: []string{"-d", variant}, file: encodeBin(racy),
			exit: 2, out: fmt.Sprint(core.Variants())})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			work := t.TempDir()
			args := r.args
			if r.file != nil {
				path := filepath.Join(work, "trace.bin")
				if err := os.WriteFile(path, r.file, 0o644); err != nil {
					t.Fatal(err)
				}
				args = append(args[:len(args):len(args)], path)
			}
			bin := r.bin
			if bin == "" {
				bin = "vft-race"
			}
			code, out, peakMiB := runCmd(t, work, filepath.Join(bins, bin), r.stdin, args...)
			if code != r.exit {
				t.Fatalf("exit %d, want %d\n%s", code, r.exit, out)
			}
			if r.exact && out != r.out {
				t.Fatalf("output differs from the library's reports:\n got %q\nwant %q", out, r.out)
			}
			if !r.exact && !strings.Contains(out, r.out) {
				t.Fatalf("output lacks %q:\n%s", r.out, out)
			}
			if r.maxRSSMiB > 0 {
				t.Logf("peak RSS %d MiB (0: no more than the test process's), budget %d MiB", peakMiB, r.maxRSSMiB)
				if peakMiB > r.maxRSSMiB {
					t.Fatal("over budget")
				}
			}
		})
	}
}

// TestRaceOracleComparesOnlyWhatIsPromised: -oracle asserts that the
// variant's verdict equals the oracle's. vft-race checks precisely, so
// the promise is the whole trace's verdict, for every variant; a sampled
// spelling, which would promise less, is no variant and exits 2.
func TestRaceOracleComparesOnlyWhatIsPromised(t *testing.T) {
	const racy = "fork 0 1\nwr 0 5\nwr 1 5\njoin 0 1\n"
	const clean = "fork 0 1\nwr 1 5\njoin 0 1\nwr 0 5\n"
	for _, variant := range core.Variants() {
		for _, tc := range []struct {
			input, oracleLine string
			code              int
		}{
			{racy, "oracle: 1 concurrent conflicting pairs", 1},
			{clean, "oracle: 0 concurrent conflicting pairs", 0},
		} {
			code, out, errOut := runRace(t, []string{"-d", variant, "-oracle"}, tc.input)
			if code != tc.code || !strings.Contains(out, tc.oracleLine) || strings.Contains(errOut, "precision bug") {
				t.Errorf("%s: exit %d, want %d with %q and no precision-bug verdict\nstdout: %s\nstderr: %s",
					variant, code, tc.code, tc.oracleLine, out, errOut)
			}
		}
	}
	if code, _, errOut := runRace(t, []string{"-d", "sampled:1", "-oracle"}, racy); code != 2 ||
		!strings.Contains(errOut, fmt.Sprint(core.Variants())) {
		t.Errorf("-d sampled:1 -oracle: exit %d, want 2 naming the variants\nstderr: %s", code, errOut)
	}
}
