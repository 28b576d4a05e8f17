package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/goinstr"
)

// poolJobs is the job count handed to the pool program: ≈ 9 trace events
// per job, so ≈ 540k events per verdict at full scale.
const poolJobs = 60_000

// vftgoWorkload takes the benchmark's own worker-pool program from source
// directory to verdict through the vft-go binary.
type vftgoWorkload struct {
	vftgo, plain string // binaries
	src, work    string
	args         []string // the pool program's argv
	wantOut      string   // its expected standard output, less the race lines
}

func (w *vftgoWorkload) setup(e *env) error {
	var err error
	if w.vftgo, err = e.goBuild("vft-go", "repro/cmd/vft-go"); err != nil {
		return err
	}
	if w.plain, err = e.goBuild("pool-plain", "./testdata/pool"); err != nil {
		return err
	}
	if w.work, err = e.workDir("vftgo-pool"); err != nil {
		return err
	}
	w.src = filepath.Join(e.root, "bench", "testdata", "pool")
	jobs := poolJobs / e.scale()
	w.args = []string{strconv.Itoa(jobs), strconv.FormatUint(e.seed, 10)}
	w.wantOut = fmt.Sprintf("total 256000 jobs %d", (jobs+255)/256*256)
	_, _, err = w.verdict() // warm-up: fills the Go build cache
	return err
}

func (w *vftgoWorkload) close() {}

func (w *vftgoWorkload) tracePath() string { return filepath.Join(w.work, "pool.trace") }

// captureMeta is the part of the shim's sidecar the benchmark reads.
type captureMeta struct {
	Events   uint64 `json:"events"`
	Dropped  uint64 `json:"dropped"`
	Timeouts uint64 `json:"timeouts"`
}

func (w *vftgoWorkload) meta() (captureMeta, error) {
	var m captureMeta
	raw, err := os.ReadFile(w.tracePath() + ".meta.json")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

// checkOutput checks what a checked run printed: the program's own result,
// and race lines for exactly the planted variables.
func (w *vftgoWorkload) checkOutput(out string) error {
	var races []string
	program := ""
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if name, ok := strings.CutPrefix(line, "race on "); ok {
			races = append(races, strings.Fields(name)[0])
		} else {
			program = line
		}
	}
	if program != w.wantOut {
		return fmt.Errorf("pool printed %q, want %q", program, w.wantOut)
	}
	sort.Strings(races)
	var want []string
	for k := 0; k < numPlanted; k++ {
		want = append(want, fmt.Sprintf("planted%d", k))
	}
	if strings.Join(races, " ") != strings.Join(want, " ") {
		return fmt.Errorf("vft-go reported races on %v, want exactly %v", races, want)
	}
	return nil
}

// verdict is one `vft-go run` of the source directory: wall time, the
// process tree's resource usage, and whether the verdict was right.
func (w *vftgoWorkload) verdict() (time.Duration, *syscall.Rusage, error) {
	args := append([]string{"-o", filepath.Join(w.work, "shadow"), "-trace", w.tracePath(), "run", w.src}, w.args...)
	cmd := exec.Command(w.vftgo, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	usage, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if cmd.ProcessState.ExitCode() != 1 { // vft-go exits 1 when it found races
		return wall, usage, fmt.Errorf("vft-go: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := w.checkOutput(stdout.String()); err != nil {
		return wall, usage, err
	}
	return wall, usage, nil
}

func (w *vftgoWorkload) measure(e *env, r *result) error {
	var rate, ms, rawMS, speeds, peaks []float64
	degraded := 0
	repeat(e.budget(), e.minReps(), func(int) {
		var wall time.Duration
		var usage *syscall.Rusage
		var err error
		speed := childProbe.speedAround(func() { wall, usage, err = w.verdict() })
		r.attempt(err)
		m, _ := w.meta()
		if m.Dropped+m.Timeouts > 0 {
			degraded++
		}
		rate = append(rate, float64(m.Events)/(wall.Seconds()*speed))
		ms = append(ms, millis(wall)*speed)
		rawMS = append(rawMS, millis(wall))
		speeds = append(speeds, speed)
		if usage != nil {
			// The tree's peak: vft-go, the compiler and linker it runs,
			// the instrumented binary. (A child's ru_maxrss is never
			// below its parent's at the fork; this process stays far
			// smaller than the Go linker.)
			peaks = append(peaks, float64(usage.Maxrss)/1024)
		}
	})
	r.setSamples("events_per_s", rate)
	r.setSamples("verdict_p50_ms", ms)
	r.setSamples("peak_rss_mb", peaks)
	r.noteRaw(rawMS, speeds)
	if degraded > 0 {
		// The verdict was still right (or the rep counts as failed); the
		// traced pass reports the dropped events and timed-out waits.
		r.note("capture degraded in %d of %d runs (a shim channel wait timed out)", degraded, len(ms))
	}
	return nil
}

// timeRun runs a pool binary outside any capture and checks its output.
func (w *vftgoWorkload) timeRun(bin string, env ...string) (time.Duration, error) {
	cmd := exec.Command(bin, w.args...)
	cmd.Env = append(os.Environ(), env...)
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err == nil && strings.TrimSpace(string(out)) != w.wantOut {
		err = fmt.Errorf("%s printed %q, want %q", filepath.Base(bin), bytes.TrimSpace(out), w.wantOut)
	}
	return wall, err
}

func (w *vftgoWorkload) traced(e *env, r *result) error {
	rec := newSpanRecorder()
	budget := e.budget()

	var plainVerdict []float64
	repeat(budget/4, 3, func(int) {
		wall, _, err := w.verdict()
		r.attempt(err)
		plainVerdict = append(plainVerdict, wall.Seconds())
	})

	// The four phases of a verdict around goinstr's public functions, each
	// rep paired with a run of the same source under plain `go build`.
	shadow := filepath.Join(w.work, "shadow-traced")
	var instrS, buildS, runS, checkS, plainS, slow, total []float64
	var phaseErr error
	var stats goinstr.Stats
	var events int
	var degraded captureMeta // summed over the reps
	repeat(budget/2, 5, func(i int) {
		fail := func(err error) {
			if err != nil && phaseErr == nil {
				phaseErr = err
			}
		}
		root := rec.begin("vftgo.verdict", -1, i)
		id := rec.begin("goinstr.instrument", root, i)
		inst, err := goinstr.Instrument(w.src, goinstr.Options{Elide: true, OutDir: shadow})
		instrS = append(instrS, rec.end(id).Seconds())
		if err != nil {
			fail(err)
			rec.end(root)
			return
		}
		stats = inst.Stats
		id = rec.begin("goinstr.build", root, i)
		bin, err := goinstr.Build(shadow)
		buildS = append(buildS, rec.end(id).Seconds())
		fail(err)
		id = rec.begin("goinstr.run", root, i)
		meta, err := goinstr.Run(bin, w.tracePath(), w.args, io.Discard, io.Discard)
		run := rec.end(id)
		runS = append(runS, run.Seconds())
		fail(err)
		if m, err := w.meta(); err == nil {
			degraded.Dropped += m.Dropped
			degraded.Timeouts += m.Timeouts
		}
		id = rec.begin("goinstr.check", root, i)
		cr, err := goinstr.Check(w.tracePath(), meta)
		checkS = append(checkS, rec.end(id).Seconds())
		total = append(total, rec.end(root).Seconds())
		fail(err)
		if err == nil {
			events = cr.Events
			fail(w.checkOutput(w.wantOut + "\n" + strings.Join(cr.Canonical(), "\n")))
		}
		plain, err := w.timeRun(w.plain)
		fail(err)
		plainS = append(plainS, plain.Seconds())
		slow = append(slow, run.Seconds()/plain.Seconds())
	})
	r.attempt(phaseErr)
	r.setSamples("goinstr.instrument_s", instrS)
	r.setSamples("goinstr.build_s", buildS)
	r.setSamples("goinstr.run_s", runS)
	r.setSamples("goinstr.check_s", checkS)
	r.setSamples("goinstr.plain_run_s", plainS)
	r.setSamples("goinstr.slowdown_x", slow)
	r.set("bench.trace_overhead_x", median(total)/median(plainVerdict))
	self := selfTimes(rec.spans)
	phases := self["goinstr.instrument"] + self["goinstr.build"] + self["goinstr.run"] + self["goinstr.check"]
	perRep := phases.Seconds() / float64(len(total))
	r.set("bench.stage_sum_error", abs(perRep-median(plainVerdict))/median(plainVerdict))

	r.set("goinstr.events", float64(events))
	r.set("goinstr.dropped_events", float64(degraded.Dropped))
	r.set("goinstr.chan_timeouts", float64(degraded.Timeouts))
	r.set("goinstr.sites", float64(stats.Sites))
	r.set("goinstr.elision_rate", stats.ElisionRate())
	if fi, err := os.Stat(w.tracePath()); err == nil {
		r.set("goinstr.trace_bytes", float64(fi.Size()))
		r.set("trace.bytes_per_event", float64(fi.Size())/float64(events))
	}

	// The stock toolchain's detector on the same source: reported, not gated.
	race, err := e.goBuild("pool-race", "./testdata/pool", "-race")
	if err != nil {
		r.note("goinstr.gorace_run_s omitted: this toolchain cannot build -race (%v)", firstLine(err))
	} else {
		var raceS []float64
		var raceErr error
		repeat(budget/8, 5, func(int) {
			// The racy program makes the race runtime exit 66 after
			// printing its reports; only the time is wanted here.
			cmd := exec.Command(race, w.args...)
			cmd.Env = append(os.Environ(), "GORACE=atexit_sleep_ms=0")
			t0 := time.Now()
			out, err := cmd.Output()
			raceS = append(raceS, time.Since(t0).Seconds())
			if _, exited := err.(*exec.ExitError); err != nil && !exited {
				raceErr = err
			} else if !strings.Contains(string(out), w.wantOut) {
				raceErr = fmt.Errorf("pool under -race printed %q", bytes.TrimSpace(out))
			}
		})
		if raceErr != nil {
			return raceErr
		}
		r.setSamples("goinstr.gorace_run_s", raceS)
	}
	return writeSpans(e, "vftgo-pool", rec)
}

func firstLine(err error) string {
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}
