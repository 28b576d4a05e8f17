package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

// checkVerdict is every workload's correctness check: the set of variables
// the detector reported must equal the planted set — the answer known by
// construction, not taken from a detector.
func checkVerdict(reports []verifiedft.Report, planted []verifiedft.VarID) error {
	want := map[verifiedft.VarID]bool{}
	for _, x := range planted {
		want[x] = true
	}
	got := map[verifiedft.VarID]bool{}
	for _, r := range reports {
		got[r.X] = true
		if !want[r.X] {
			return fmt.Errorf("spurious race reported on x%d (%d planted)", r.X, len(planted))
		}
	}
	for x := range want {
		if !got[x] {
			return fmt.Errorf("planted race on x%d was missed", x)
		}
	}
	return nil
}

// repeat calls op until the budget is spent and at least min times.
func repeat(budget time.Duration, min int, op func(i int)) {
	deadline := time.Now().Add(budget)
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		op(i)
	}
}

// onlineWorkload runs a kernel under the public Runtime with a V2 detector.
type onlineWorkload struct {
	name string
	k    kernel
	size int
}

// runChecked is one verdict: build a detector and a runtime, run the
// kernel, read the reports. With extra detector options (the sampling
// tier) the verdict is not compared with the planted set.
func (w *onlineWorkload) runChecked(e *env, plant bool, opts ...verifiedft.Option) (time.Duration, eventCount, verifiedft.Detector, error) {
	t0 := time.Now()
	d, err := verifiedft.New(verifiedft.V2, opts...)
	if err != nil {
		return 0, eventCount{}, nil, err
	}
	rt := verifiedft.NewRuntime(d)
	ec, planted, err := w.k.run(rt, e.seed, w.size, plant)
	reports := rt.Reports()
	wall := time.Since(t0)
	if err == nil && len(opts) == 0 {
		err = checkVerdict(reports, planted)
	}
	return wall, ec, d, err
}

func (w *onlineWorkload) runBase(e *env) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := w.k.run(verifiedft.NewRuntime(nil), e.seed, w.size, true)
	return time.Since(t0), err
}

func (w *onlineWorkload) prepare(e *env) error {
	w.size = w.k.size / e.scale()
	return nil
}

func (w *onlineWorkload) verdict(e *env) (time.Duration, uint64, error) {
	wall, ec, _, err := w.runChecked(e, true)
	return wall, ec.total(), err
}

func (w *onlineWorkload) setup(e *env) error {
	if err := w.prepare(e); err != nil {
		return err
	}
	// Reference check: without the planted writes the kernel is silent.
	small := *w
	small.size = w.size/8 + 1
	if _, _, _, err := small.runChecked(e, false); err != nil {
		return fmt.Errorf("planted-free variant: %w", err)
	}
	return warmUp(e, w)
}

func (w *onlineWorkload) close() {}

func (w *onlineWorkload) measure(e *env, r *result) error { return measureInProcess(e, r, w.name, w) }

func (w *onlineWorkload) traced(e *env, r *result) error {
	rec := newSpanRecorder()
	budget := e.budget()

	// Untraced reference reps, for bench.trace_overhead_x.
	var plain []float64
	repeat(budget/5, 3, func(int) {
		wall, _, _, err := w.runChecked(e, true)
		r.attempt(err)
		plain = append(plain, wall.Seconds())
	})

	// Paired, alternating checked/unchecked reps. A pair's spans are
	// core.handlers (the checked run) with the unchecked wall laid inside
	// it as its child rtsim.base: the self time of core.handlers is what
	// attaching the detector cost.
	var ratio, handlerNS, baseRate, checked []float64
	var ec eventCount
	var last verifiedft.Detector
	repeat(budget*2/5, e.minReps(), func(i int) {
		var wc, wb time.Duration
		var errC, errB error
		id := -1
		runC := func() {
			id = rec.begin("core.handlers", -1, i)
			wc, ec, last, errC = w.runChecked(e, true)
			rec.end(id)
		}
		if i%2 == 0 {
			runC()
			wb, errB = w.runBase(e)
		} else {
			wb, errB = w.runBase(e)
			runC()
		}
		r.attempt(errC)
		if errB != nil {
			r.attempt(errB)
		}
		rec.add("rtsim.base", id, i, rec.spans[id].Start, wb)
		ratio = append(ratio, wc.Seconds()/wb.Seconds())
		handlerNS = append(handlerNS, float64(wc-wb)/float64(ec.total()))
		baseRate = append(baseRate, float64(ec.total())/wb.Seconds())
		checked = append(checked, wc.Seconds())
	})
	r.setSamples("core.slowdown_x", ratio)
	r.setSamples("core.handler_ns_per_event", handlerNS)
	r.setSamples("rtsim.base_events_per_s", baseRate)
	r.set("rtsim.events.access", float64(ec.access))
	r.set("rtsim.events.sync", float64(ec.sync))
	r.set("bench.trace_overhead_x", median(checked)/median(plain))

	// The handlers' median self time and the base run's median, added up,
	// against an untraced checked run.
	var handlers, base []float64
	for i := range checked {
		base = append(base, checked[i]/ratio[i])
		handlers = append(handlers, checked[i]-base[i])
	}
	r.set("bench.stage_sum_error", abs(median(handlers)+median(base)-median(plain))/median(plain))

	// Exact counts from the last checked run's detector, at quiescence.
	if ss, ok := verifiedft.Unwrap(last).(verifiedft.StatsSource); ok {
		setRuleCounts(r, ss.Stats())
	}

	// Allocations and retained heap of one checked run.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, ec, d, err := w.runChecked(e, true)
	r.attempt(err)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.set("core.allocs_per_event", float64(after.Mallocs-before.Mallocs)/float64(ec.total()))
	if after.HeapAlloc > before.HeapAlloc {
		r.set("shadow.bytes_per_var", float64(after.HeapAlloc-before.HeapAlloc)/float64(w.k.vars))
	}
	runtime.KeepAlive(d)

	r.setSamples("core.detector_new_us", detectorNewMicros())

	// The always-on tier on the same kernel.
	var sampled []float64
	repeat(budget/5, 5, func(i int) {
		ws, _, _, errS := w.runChecked(e, true, verifiedft.WithSampling(0.01))
		wb, errB := w.runBase(e)
		if errS != nil || errB != nil {
			r.attempt(fmt.Errorf("sampled run: %v %v", errS, errB))
		}
		sampled = append(sampled, ws.Seconds()/wb.Seconds())
	})
	r.setSamples("sample.slowdown_x_r0.01", sampled)

	// Single-threaded replay of the event stream of a reduced-size run of
	// the kernel (16 B per recorded event), as one linearization.
	sr := core.NewRecorder()
	if _, _, err := w.k.run(verifiedft.NewRuntime(sr), e.seed, w.size/8+1, true); err != nil {
		return err
	}
	ops := sr.Trace()
	var dispatch []float64
	repeat(budget/5, 5, func(i int) {
		id := rec.begin("core.dispatch", -1, i)
		dispatchAll(ops)
		dispatch = append(dispatch, float64(rec.end(id))/float64(len(ops)))
	})
	r.setSamples("core.dispatch_ns_per_op", dispatch)

	vcProbes(r)
	return writeSpans(e, w.name, rec)
}

// dispatchAll replays a core-language stream through a fresh default
// detector on one goroutine.
func dispatchAll(ops trace.Trace) []core.Report {
	d, err := core.New(verifiedft.V2, core.DefaultConfig())
	if err != nil {
		panic(err) // V2 is always registered
	}
	for _, op := range ops {
		core.Dispatch(d, op)
	}
	return d.Reports()
}

// detectorNewMicros times the public constructor: the fixed cost a small
// upload or a short test pays before its first event.
func detectorNewMicros() []float64 {
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		d, err := verifiedft.New(verifiedft.V2)
		el := time.Since(t0)
		if err != nil {
			panic(err)
		}
		runtime.KeepAlive(d)
		us = append(us, float64(el)/float64(time.Microsecond))
	}
	return us
}

func (e *env) spanPath(workload string) string {
	return filepath.Join(e.out, "spans-"+workload+".json")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// writeSpans writes the traced run's spans and their per-name self times
// to bench/out/spans-<workload>.json.
func writeSpans(e *env, name string, rec *spanRecorder) error {
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string  `json:"name"`
		SelfMS float64 `json:"self_ms"`
	}
	rows := make([]selfRow, len(names))
	for i, n := range names {
		rows[i] = selfRow{n, millis(self[n])}
	}
	return writeJSON(e.spanPath(name), struct {
		Provenance provenance `json:"provenance"`
		Workload   string     `json:"workload"`
		SelfTimes  []selfRow  `json:"self_times"`
		Spans      []span     `json:"spans"`
	}{e.provenance(true), name, rows, rec.spans})
}
