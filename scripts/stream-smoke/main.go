// Command stream-smoke exercises the streaming ingestion path end to end
// the way a capture pipeline would: it builds vft-race, encodes a known-racy
// and a known-clean trace into the gzipped binary wire format, pipes each
// into `vft-race -` over stdin, and verifies the verdicts through the exit
// codes (1 race, 0 clean) — no file ever touches disk on the consumer side,
// and format detection must work on an unseekable pipe. Two hostile-input
// fixes are gated the same way, by exit code and child max-RSS: a valid
// 300-thread trace under -d ft-cas must be a positioned input error (exit
// 2), not a Pack32 panic; and the check of a trace naming one huge thread,
// variable or lock id must stay under 64 MiB with the ordinary verdict,
// through -all -oracle's differential stack too. It is a Go program rather
// than a shell script so `make stream-smoke` works on any machine with
// just the toolchain.
package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/trace"
)

func main() { os.Exit(run()) }

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "stream-smoke: FAIL: "+format+"\n", args...)
	return 1
}

// gzBinary renders tr as the gzipped binary wire format.
func gzBinary(tr trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := trace.EncodeBinary(zw, tr); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func run() int {
	tmp, err := os.MkdirTemp("", "stream-smoke")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	build := exec.Command("go", "build", "-o", tmp+string(filepath.Separator), "./cmd/vft-race")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fail("build: %v", err)
	}

	racy := trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(0, 0), trace.Wr(1, 0), trace.JoinOp(0, 1),
	}
	clean := trace.Trace{
		trace.ForkOp(0, 1),
		trace.Acq(1, 0), trace.Wr(1, 0), trace.Rel(1, 0),
		trace.JoinOp(0, 1),
		trace.Rd(0, 0),
	}

	racyGz, err := gzBinary(racy)
	if err != nil {
		return fail("encode: %v", err)
	}
	cleanGz, err := gzBinary(clean)
	if err != nil {
		return fail("encode: %v", err)
	}
	// 300 threads: valid for 16-bit tids, beyond FT-CAS's 8-bit format.
	var wide strings.Builder
	for u := 1; u < 300; u++ {
		fmt.Fprintf(&wide, "fork 0 %d\n", u)
	}
	wide.WriteString("wr 299 1\nwr 0 1\n")
	// One huge variable id; under the default seed rate 0.5 suppresses it,
	// so the sampled verdict is clean.
	sparse := "fork 0 1\nwr 1 2000000000\nwr 0 2000000000\n"
	// One huge thread id (racy), one huge lock id (clean).
	bigTid := "fork 0 65000\nwr 65000 1\nwr 0 1\n"
	bigLock := "acq 0 16000000\nrel 0 16000000\n"

	type smokeCase struct {
		name      string
		args      []string
		stdin     []byte
		wantExit  int
		wantOut   string
		maxRSSMiB int64 // 0: unchecked
	}
	cases := []smokeCase{
		{"racy gzip binary", []string{"-"}, racyGz, 1, "race", 0},
		{"clean gzip binary", []string{"-"}, cleanGz, 0, "no races detected", 0},
		{"300 threads, -d ft-cas", []string{"-d", "ft-cas", "-"}, []byte(wide.String()), 2, "thread id 255 outside 0..254", 0},
		{"300 threads, -d ft-mutex", []string{"-d", "ft-mutex", "-"}, []byte(wide.String()), 1, "Write-Write Race", 0},
		{"sparse var, -d sampled:0.5", []string{"-d", "sampled:0.5", "-"}, []byte(sparse), 0, "no races detected", 64},
		{"sparse var, -all -oracle", []string{"-all", "-oracle", "-"}, []byte(sparse), 1, "oracle: 1 concurrent conflicting pairs", 64},
		{"huge lock, -all -oracle", []string{"-all", "-oracle", "-"}, []byte(bigLock), 0, "oracle: 0 concurrent conflicting pairs", 64},
	}
	for _, d := range []string{"vft-v2", "djit"} {
		cases = append(cases,
			smokeCase{"sparse var, -d " + d, []string{"-d", d, "-"}, []byte(sparse), 1, "x2000000000", 64},
			smokeCase{"huge tid, -d " + d, []string{"-d", d, "-"}, []byte(bigTid), 1, "prior access 65000@1", 64},
			smokeCase{"huge lock, -d " + d, []string{"-d", d, "-"}, []byte(bigLock), 0, "no races detected", 64})
	}
	for _, c := range cases {
		var out bytes.Buffer
		cmd := exec.Command(filepath.Join(tmp, "vft-race"), c.args...)
		cmd.Stdin = bytes.NewReader(c.stdin)
		cmd.Stdout, cmd.Stderr = &out, &out
		err = cmd.Run()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			return fail("%s: %v", c.name, err)
		}
		if exit != c.wantExit {
			return fail("%s: exit %d, want %d\n%s", c.name, exit, c.wantExit, out.String())
		}
		if !strings.Contains(out.String(), c.wantOut) {
			return fail("%s: output lacks %q:\n%s", c.name, c.wantOut, out.String())
		}
		rss := ""
		if c.maxRSSMiB > 0 {
			ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
			if !ok {
				return fail("%s: no rusage for the child", c.name)
			}
			mib := int64(ru.Maxrss) >> 10 // KiB on Linux
			if runtime.GOOS == "darwin" {
				mib >>= 10 // bytes there
			}
			if mib > c.maxRSSMiB {
				return fail("%s: child peaked at %d MiB, budget %d MiB", c.name, mib, c.maxRSSMiB)
			}
			rss = fmt.Sprintf(", peak RSS %d MiB", mib)
		}
		fmt.Printf("stream-smoke: %s → exit %d%s ✓\n", c.name, exit, rss)
	}

	fmt.Println("stream-smoke: OK — vft-race consumed piped traces with correct verdicts, errors and memory")
	return 0
}
