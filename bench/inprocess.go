package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// inProcess is a workload whose checking happens in this process (the
// online and offline ones).
type inProcess interface {
	prepare(e *env) error // build the input and nothing else
	verdict(e *env) (wall time.Duration, events uint64, err error)
}

// warmUp is the tail of an in-process set-up: two untimed verdicts.
func warmUp(e *env, w inProcess) error {
	for i := 0; i < 2; i++ {
		if _, _, err := w.verdict(e); err != nil {
			return err
		}
	}
	return nil
}

// rssChildren is how many fresh processes peak_rss_mb is the smallest peak of.
const rssChildren = 5

// measureInProcess is the end-to-end measurement of an in-process
// workload: verdicts one after another for the run's budget, each from a
// collected heap, and then the memory a verdict needs.
func measureInProcess(e *env, r *result, name string, w inProcess) error {
	var rate, ms, rawMS, speeds []float64
	repeat(e.budget(), e.minReps(), func(int) {
		runtime.GC() // every rep starts from the same heap
		var wall time.Duration
		var events uint64
		var err error
		speed := inProcessProbe.speedAround(func() { wall, events, err = w.verdict(e) })
		r.attempt(err)
		rate = append(rate, float64(events)/(wall.Seconds()*speed))
		ms = append(ms, millis(wall)*speed)
		rawMS = append(rawMS, millis(wall))
		speeds = append(speeds, speed)
	})
	r.setSamples("events_per_s", rate)
	r.setSamples("verdict_p50_ms", ms)
	r.noteRaw(rawMS, speeds)

	// This process's own peak is the maximum over every repetition and
	// set-up it ever ran, and moves with the garbage collector's luck. A
	// fresh process that builds the input and produces exactly one verdict
	// has a peak that belongs to the verdict; it reports it on stdout.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var peaks []float64
	for i := 0; i < rssChildren; i++ {
		cmd := exec.Command(self, append(e.childArgs(name), "-one-verdict")...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err == nil {
			var mib float64
			if mib, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err == nil {
				peaks = append(peaks, mib)
			}
		}
		r.attempt(err)
	}
	if len(peaks) == 0 {
		return fmt.Errorf("no one-verdict child of %s reported its peak RSS", name)
	}
	// The smallest, not the median: what the collector's timing adds to a
	// peak is one-sided, and it comes in steps — on online-readshared a
	// child peaks near 27, 34 or 41 MiB depending on how many collections
	// end before the read vectors are allocated — so a median flips between
	// the steps from run to run while the smallest of five sits on the
	// lowest one, the memory the verdict needs when the collector keeps up.
	r.summaries["peak_rss_mb"] = summarize(peaks)
	r.set("peak_rss_mb", sorted(peaks)[0])
	return nil
}

// peakRSSMiB reads a live process's peak resident set (VmHWM) from /proc.
// The ru_maxrss of a waited-for child will not do: across fork and exec
// Linux seeds it with the parent's own peak, so a small child of a large
// benchmark process would report the benchmark's memory.
func peakRSSMiB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kib, err := strconv.ParseFloat(strings.Fields(string(rest))[0], 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runOneVerdict is the child side of measureInProcess.
func runOneVerdict(e *env, name string) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	ip, ok := w.(inProcess)
	if !ok {
		return fmt.Errorf("%s does its checking in another process", name)
	}
	if err := ip.prepare(e); err != nil {
		return err
	}
	if _, _, err := ip.verdict(e); err != nil {
		return err
	}
	mib, err := peakRSSMiB(os.Getpid())
	fmt.Println(mib)
	return err
}
