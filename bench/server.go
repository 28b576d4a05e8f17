package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"syscall"
	"time"

	verifiedft "repro"
	"repro/internal/ingest"
)

// getEvery is how many POSTs the client sends between two GETs of a
// tenant's aggregate, so the depot is read as well as written.
const getEvery = 50

// serverWorkload drives the real vft-server binary, default flags, on a
// loopback port, closed-loop with one client: a CI job blocks on its
// verdict, so the caller waits for its reply before sending again. One
// client, because the server inherits the benchmark's one processor and a
// second caller would only queue behind the first.
type serverWorkload struct {
	pool   []upload
	cmd    *exec.Cmd
	base   string
	client *http.Client
	usage  *syscall.Rusage // set once the server has exited
	peak   float64         // its peak RSS in MiB, read just before it exits
}

func (w *serverWorkload) setup(e *env) error {
	bin, err := e.goBuild("vft-server", "repro/cmd/vft-server")
	if err != nil {
		return err
	}
	if w.pool, err = genServerPool(e.seed, e.scale()); err != nil {
		return err
	}
	w.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := w.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := w.cmd.Start(); err != nil {
		return err
	}
	w.usage = nil
	// The server announces its bound address on its first stdout line.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return fmt.Errorf("vft-server did not announce its address: %w", err)
	}
	go io.Copy(io.Discard, stdout) // exits when the server closes stdout
	i := strings.Index(line, "http://")
	if i < 0 {
		return fmt.Errorf("no address in %q", line)
	}
	w.base = strings.Fields(line[i:])[0]
	w.client = &http.Client{Timeout: 60 * time.Second}
	for i := range w.pool { // warm-up: one pass over the pool
		if _, err := w.post(&w.pool[i]); err != nil {
			return err
		}
	}
	return nil
}

// stop reads the server's peak RSS, drains it with SIGTERM and collects
// its CPU usage.
func (w *serverWorkload) stop() error {
	if w.cmd == nil {
		return nil
	}
	cmd := w.cmd
	w.cmd = nil
	w.client.CloseIdleConnections()
	var err error
	if w.peak, err = peakRSSMiB(cmd.Process.Pid); err != nil {
		return err
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("vft-server did not drain cleanly: %w", err)
	}
	w.usage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return nil
}

func (w *serverWorkload) close() {
	if w.cmd != nil {
		w.cmd.Process.Kill()
		w.cmd.Wait()
		w.cmd = nil
	}
}

// verdict is the part of the server's reply the benchmark checks.
type verdict struct {
	Ops     int `json:"ops"`
	Reports []struct {
		Var verifiedft.VarID `json:"var"`
	} `json:"reports"`
}

func (v *verdict) check(u *upload) error {
	if v.Ops != u.ops {
		return fmt.Errorf("server counted %d ops in a %d-op upload", v.Ops, u.ops)
	}
	reports := make([]verifiedft.Report, len(v.Reports))
	for i, r := range v.Reports {
		reports[i].X = r.Var
	}
	return checkVerdict(reports, u.planted)
}

// post sends one upload and returns the client-observed latency from
// sending the request to holding the parsed, checked verdict.
func (w *serverWorkload) post(u *upload) (time.Duration, error) {
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/traces?tenant="+u.tenant, "application/octet-stream", bytes.NewReader(u.body))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("upload refused: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var v verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("verdict is not JSON: %w", err)
	}
	el := time.Since(t0)
	return el, v.check(u)
}

func (w *serverWorkload) getReports(tenant string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := w.client.Get(w.base + "/v1/reports?tenant=" + tenant)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /v1/reports: %s", resp.Status)
	}
	return time.Since(t0), err
}

// loadResult is what one closed-loop window observed.
type loadResult struct {
	wall      time.Duration
	postMS    []float64 // upload latencies, as measured
	getMS     []float64
	passRate  []float64 // ops answered per second at nominal speed, one value per pass over the pool
	speeds    []float64 // host speed around each pass
	bytes     int
	errs      []error
	rejected  int
	attempted int
}

// load runs the closed-loop client for the window: pass after pass over
// the pool, so every pass offers the pool's exact mix, and a pass that the
// window's end falls into is finished. rec, when non-nil, gets one
// http.roundtrip span per upload.
func (w *serverWorkload) load(window time.Duration, rec *spanRecorder) loadResult {
	var res loadResult
	t0 := time.Now()
	deadline := t0.Add(window)
	for pass := 0; time.Now().Before(deadline); pass++ {
		var passWall time.Duration
		ops := 0
		speed := childProbe.speedAround(func() {
			passStart := time.Now()
			for i := range w.pool {
				u := &w.pool[i]
				start := time.Now()
				el, err := w.post(u)
				res.attempted++
				if err != nil {
					res.errs = append(res.errs, err)
					if strings.HasPrefix(err.Error(), "upload refused") {
						res.rejected++
					}
				} else {
					res.postMS = append(res.postMS, millis(el))
					ops += u.ops
					res.bytes += len(u.body)
					if rec != nil {
						rec.add("http.roundtrip", -1, pass*len(w.pool)+i, int64(start.Sub(rec.t0)), el)
					}
				}
				if res.attempted%getEvery == 0 {
					el, err := w.getReports(u.tenant)
					if err != nil {
						res.errs = append(res.errs, err)
					}
					res.getMS = append(res.getMS, millis(el))
				}
			}
			passWall = time.Since(passStart)
		})
		res.passRate = append(res.passRate, float64(ops)/(passWall.Seconds()*speed))
		res.speeds = append(res.speeds, speed)
	}
	res.wall = time.Since(t0)
	return res
}

// count folds a window's attempts and failures into the result.
func (lr *loadResult) count(r *result) {
	for i := 0; i < lr.attempted-len(lr.errs); i++ {
		r.attempt(nil)
	}
	for _, err := range lr.errs {
		r.attempt(err)
	}
}

func (w *serverWorkload) measure(e *env, r *result) error {
	lr := w.load(e.budget(), nil)
	lr.count(r)
	if err := w.stop(); err != nil {
		return err
	}
	// Throughput is scaled to the host's nominal speed: a pass is decoding
	// and checking, three fifths of it in the three largest uploads, and
	// follows the core's speed as the reference loop does. The latency of
	// the median upload is not: it is a 2k-op body, most of its 1.4 ms is
	// system calls and wake-ups between two processes, and in a stretch the
	// loop reads 25% fast it arrives 5% sooner. It is reported as measured.
	r.setSamples("events_per_s", lr.passRate)
	r.setSamples("verdict_p50_ms", lr.postMS)
	r.note("verdict_p50_ms is as measured; events_per_s is at the host's nominal speed: host speed x%.3f (median of %d passes)",
		median(lr.speeds), len(lr.speeds))
	r.set("peak_rss_mb", w.peak)
	r.note("%d uploads answered in %.2fs, %d passes over the pool", len(lr.postMS), lr.wall.Seconds(), len(lr.passRate))
	return nil
}

func (w *serverWorkload) traced(e *env, r *result) error {
	rec := newSpanRecorder()
	budget := e.budget()

	plain := w.load(budget/6, nil)
	plain.count(r)
	lr := w.load(budget/2, rec)
	lr.count(r)
	if err := w.stop(); err != nil {
		return err
	}
	r.set("bench.trace_overhead_x", median(lr.postMS)/median(plain.postMS))
	r.set("ingest.uploads_per_s", float64(len(lr.postMS))/lr.wall.Seconds())
	r.set("ingest.verdict_p99_ms", percentile(lr.postMS, 99))
	r.setSamples("ingest.reports_get_ms_p50", lr.getMS)
	r.set("ingest.rejected_share", float64(lr.rejected+plain.rejected)/float64(lr.attempted+plain.attempted))
	r.set("ingest.upload_bytes_mean", float64(lr.bytes)/float64(len(lr.postMS)))
	cpu := time.Duration(w.usage.Utime.Nano() + w.usage.Stime.Nano())
	r.set("ingest.server_cpu_s", cpu.Seconds())

	// The same bodies through the service's handler in this process, one
	// caller, and through the offline stages the handler is built from: the
	// handler's self time is what admission, the depot and JSON add.
	srv := ingest.New(ingest.Config{})
	handler := srv.Handler()
	n := len(w.pool)
	handlerMS, checkMS := make([][]float64, n), make([][]float64, n)
	var replayErr error
	repeat(budget/3, 3, func(pass int) {
		for i := range w.pool {
			u := &w.pool[i]
			req := httptest.NewRequest(http.MethodPost, "/v1/traces?tenant="+u.tenant, bytes.NewReader(u.body))
			rw := httptest.NewRecorder()
			t0 := time.Now()
			handler.ServeHTTP(rw, req)
			h := time.Since(t0)
			var v verdict
			if err := json.Unmarshal(rw.Body.Bytes(), &v); err != nil || rw.Code != http.StatusOK {
				replayErr = fmt.Errorf("in-process handler: status %d: %v", rw.Code, err)
			} else if err := v.check(u); err != nil {
				replayErr = err
			}

			t0 = time.Now()
			reports, err := verifiedft.CheckReader(bytes.NewReader(u.body), verifiedft.WithParallelism(e.procs))
			c := time.Since(t0)
			if err == nil {
				err = checkVerdict(reports, u.planted)
			}
			if err != nil {
				replayErr = err
			}
			t0 = time.Now()
			src, err := verifiedft.NewTraceDecoder(bytes.NewReader(u.body))
			if err == nil {
				_, err = drain(src)
			}
			d := time.Since(t0)
			if err != nil {
				replayErr = err
			}

			op := pass*n + i
			at := int64(time.Since(rec.t0))
			hs := rec.add("ingest.handler", -1, op, at, h)
			cs := rec.add("parcheck.check", hs, op, at, c)
			rec.add("trace.decode", cs, op, at, d)
			handlerMS[i] = append(handlerMS[i], millis(h))
			checkMS[i] = append(checkMS[i], millis(c))
		}
	})
	r.attempt(replayErr)
	var hMed, residual []float64
	for i := range w.pool {
		h := median(handlerMS[i])
		hMed = append(hMed, h)
		residual = append(residual, h-median(checkMS[i]))
	}
	r.setSamples("ingest.handler_ms_p50", hMed)
	r.setSamples("ingest.residual_ms", residual)
	r.set("ingest.http_overhead_ms", median(lr.postMS)-median(hMed))
	r.setSamples("core.detector_new_us", detectorNewMicros())
	return writeSpans(e, "server-mixed", rec)
}
