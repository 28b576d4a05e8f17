package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"time"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/parcheck"
	"repro/internal/trace"
)

// Full-scale offline input sizes (pre-lowering ops). The two paths of one
// shape check the same bytes, so the sizes are set by the slower path: a
// run should fit some thirty repetitions of it, because on a noisy host a
// median steadies with the number of repetitions behind it.
const (
	accessDenseOps = 1_000_000
	syncDenseOps   = 500_000
	oracleOps      = 40_000 // the sibling input checked against internal/hb
)

// offlineWorkload checks one generated binary trace through the public
// CheckReader, sequentially (the default) or with
// WithParallelism(shardWorkers).
type offlineWorkload struct {
	name     string
	shape    string
	parallel bool
	in       *offlineInput
}

func (w *offlineWorkload) generator(seed uint64, n int, plant bool) func(func(trace.Op)) genInfo {
	return func(sink func(trace.Op)) genInfo {
		if w.shape == "syncdense" {
			return genSyncDense(seed, n, plant, sink)
		}
		return genBlocks(seed, n, plant, accessDenseShape, sink)
	}
}

func (w *offlineWorkload) fullOps(e *env) int {
	if w.shape == "syncdense" {
		return syncDenseOps / e.scale()
	}
	return accessDenseOps / e.scale()
}

// pathOptions are the check options of the path under test.
func (w *offlineWorkload) pathOptions(e *env) []verifiedft.CheckOption {
	opts := w.in.checkOptions()
	if w.parallel {
		opts = append(opts, verifiedft.WithParallelism(shardWorkers))
	}
	return opts
}

// check is one verdict on the workload's path.
func (w *offlineWorkload) check(e *env, extra ...verifiedft.CheckOption) (time.Duration, error) {
	opts := append(w.pathOptions(e), extra...)
	t0 := time.Now()
	reports, err := verifiedft.CheckReader(bytes.NewReader(w.in.data), opts...)
	wall := time.Since(t0)
	if err == nil {
		err = checkVerdict(reports, w.in.info.planted)
	}
	return wall, err
}

func (w *offlineWorkload) setup(e *env) error {
	// Reference check: a small sibling of the input, same generator and
	// seed, against the independent happens-before oracle — its racy
	// variables must be exactly the planted ones, and the planted-free
	// variant must have none.
	for _, plant := range []bool{true, false} {
		tr, info := collect(w.generator(e.seed, oracleOps, plant))
		ext := &trace.Extensions{ChanCapacity: info.chanCaps}
		if err := trace.ValidateExt(tr, ext); err != nil {
			return fmt.Errorf("generated trace is infeasible: %w", err)
		}
		lowered := tr.Desugar(ext)
		var racy []verifiedft.Report
		for _, p := range hb.Analyze(lowered).Races {
			racy = append(racy, verifiedft.Report{X: lowered[p.Second].X})
		}
		if err := checkVerdict(racy, info.planted); err != nil {
			return fmt.Errorf("hb oracle on the %d-op sibling (plant=%v): %w", oracleOps, plant, err)
		}
	}

	if err := w.prepare(e); err != nil {
		return err
	}
	return warmUp(e, w)
}

func (w *offlineWorkload) prepare(e *env) error {
	in, err := encodeBinary(w.generator(e.seed, w.fullOps(e), true))
	w.in = in
	return err
}

func (w *offlineWorkload) verdict(e *env) (time.Duration, uint64, error) {
	wall, err := w.check(e)
	return wall, uint64(w.in.info.ops), err
}

func (w *offlineWorkload) close() { w.in = nil }

func (w *offlineWorkload) measure(e *env, r *result) error { return measureInProcess(e, r, w.name, w) }

// drain pulls a source to its end and returns how many ops it yielded.
func drain(src trace.Source) (int, error) {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// timeDrain times building a pipeline over data and draining it.
func timeDrain(data []byte, build func(trace.Source) trace.Source) (time.Duration, int, error) {
	t0 := time.Now()
	src, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	n, err := drain(build(src))
	return time.Since(t0), n, err
}

func (w *offlineWorkload) traced(e *env, r *result) error {
	rec := newSpanRecorder()
	budget := e.budget()
	data, ops := w.in.data, float64(w.in.info.ops)
	ext := &trace.Extensions{ChanCapacity: w.in.info.chanCaps}
	r.set("trace.bytes_per_event", float64(len(data))/ops)

	// Stage costs by cumulative prefix passes over the same bytes: decode;
	// decode+validate; decode+validate+lower; the whole check. The stages
	// of a pull pipeline nest — the checker pulls from the lowerer, which
	// pulls from the validator, which pulls from the decoder — so each
	// pass is recorded as the parent of the shorter one and a stage's self
	// time is its pass minus the pass before it. Each round also times one
	// check outside the spans, the untraced reference.
	check := "core.dispatch"
	if w.parallel {
		check = "parcheck.check"
	}
	var dec, val, low, last, whole, plain []float64
	var lowered int
	var stageErr error
	repeat(budget, e.minReps(), func(i int) {
		// Odd rounds run the passes in the opposite order, so that neither
		// the reference nor the whole check always follows the same pass.
		var a, b, c, d time.Duration
		var n int
		var err1, err2, err3, err4 error
		passes := []func(){
			func() {
				p, err := w.check(e)
				r.attempt(err)
				plain = append(plain, p.Seconds())
			},
			func() { a, _, err1 = timeDrain(data, func(s trace.Source) trace.Source { return s }) },
			func() {
				b, _, err2 = timeDrain(data, func(s trace.Source) trace.Source { return trace.ValidateSource(s, ext) })
			},
			func() {
				c, n, err3 = timeDrain(data, func(s trace.Source) trace.Source {
					return trace.DesugarSource(trace.ValidateSource(s, ext), ext)
				})
			},
			func() { d, err4 = w.check(e) },
		}
		for k := range passes {
			if i%2 == 1 {
				k = len(passes) - 1 - k
			}
			passes[k]()
		}
		for _, err := range []error{err1, err2, err3, err4} {
			if err != nil && stageErr == nil {
				stageErr = err
			}
		}
		lowered = n
		at := int64(time.Since(rec.t0))
		root := rec.add(check, -1, i, at, d)
		lo := rec.add("trace.lower", root, i, at, c)
		va := rec.add("trace.validate", lo, i, at, b)
		rec.add("trace.decode", va, i, at, a)
		dec = append(dec, float64(a)/ops)
		val = append(val, float64(b-a)/ops)
		low = append(low, float64(c-b)/ops)
		last = append(last, (d - c).Seconds())
		whole = append(whole, d.Seconds())
	})
	if stageErr != nil {
		return fmt.Errorf("stage pass: %w", stageErr)
	}
	r.setSamples("trace.decode_bin_ns_per_op", dec)
	r.setSamples("trace.validate_ns_per_op", val)
	r.setSamples("trace.lower_ns_per_op", low)
	r.set("trace.lowered_ops_ratio", float64(lowered)/ops)
	r.set("bench.trace_overhead_x", median(whole)/median(plain))
	// The stage medians reported above, added up, against the reference.
	stages := (median(dec)+median(val)+median(low))*ops/1e9 + median(last)
	r.set("bench.stage_sum_error", abs(stages-median(plain))/median(plain))

	// The instrumentation budget: the same check with a registry attached.
	var overhead []float64
	repeat(budget/4, e.minReps(), func(i int) {
		off, err1 := w.check(e)
		on, err2 := w.check(e, verifiedft.WithMetrics(verifiedft.NewMetrics()))
		if err1 != nil || err2 != nil {
			r.attempt(fmt.Errorf("metrics-on pair: %v %v", err1, err2))
		}
		overhead = append(overhead, on.Seconds()/off.Seconds())
	})
	r.setSamples("obs.metrics_on_overhead_x", overhead)

	// The remaining probes work on a materialized quarter-size sibling:
	// a pre-lowered slice for core and parcheck alone, and the gzip and
	// text encodings for the other two decoders.
	tr, info := collect(w.generator(e.seed, w.fullOps(e)/4, true))
	sext := &trace.Extensions{ChanCapacity: info.chanCaps}
	low4 := tr.Desugar(sext)
	n4 := float64(len(low4))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := core.New(verifiedft.V2, core.DefaultConfig())
	if err != nil {
		return err
	}
	for _, op := range low4 {
		core.Dispatch(d, op)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		r.set("shadow.bytes_per_var", float64(after.HeapAlloc-before.HeapAlloc)/float64(trace.Scan(low4).Vars))
	}
	r.set("core.allocs_per_event", float64(after.Mallocs-before.Mallocs)/n4)
	r.attempt(checkVerdict(d.Reports(), info.planted))
	if ss, ok := d.(core.StatsSource); ok {
		setRuleCounts(r, ss.Stats())
	}
	runtime.KeepAlive(d)

	var dispatch []float64
	repeat(budget/12, 5, func(i int) {
		t0 := time.Now()
		dispatchAll(low4)
		dispatch = append(dispatch, float64(time.Since(t0))/n4)
	})
	r.setSamples("core.dispatch_ns_per_op", dispatch)
	r.setSamples("core.detector_new_us", detectorNewMicros())

	var w1, wp []float64
	var snap obs.Snapshot
	parOnce := func(workers int) (time.Duration, error) {
		t0 := time.Now()
		reports, err := parcheck.Check(trace.NewSliceSource(low4), parcheck.Options{
			Workers: workers, StatsSink: func(s obs.Snapshot) { snap = s }})
		el := time.Since(t0)
		if err == nil {
			err = checkVerdict(reports, info.planted)
		}
		return el, err
	}
	repeat(budget/6, 5, func(i int) {
		a, err1 := parOnce(1)
		b, err2 := parOnce(shardWorkers)
		if err1 != nil || err2 != nil {
			r.attempt(fmt.Errorf("parcheck probe: %v %v", err1, err2))
		}
		w1 = append(w1, float64(a)/n4)
		wp = append(wp, float64(b)/n4)
	})
	r.setSamples("parcheck.check_ns_per_op_w1", w1)
	r.setSamples("parcheck.check_ns_per_op_wP", wp)
	r.set("parcheck.par_speedup_x", median(w1)/median(wp))
	setParcheckShares(r, snap)

	var gz, txt bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if err := verifiedft.EncodeBinary(zw, tr); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := verifiedft.EncodeText(&txt, tr); err != nil {
		return err
	}
	for _, enc := range []struct {
		metric string
		data   []byte
	}{{"trace.decode_gzip_ns_per_op", gz.Bytes()}, {"trace.decode_text_ns_per_op", txt.Bytes()}} {
		var ns []float64
		var derr error
		repeat(budget/24, 3, func(int) {
			el, n, err := timeDrain(enc.data, func(s trace.Source) trace.Source { return s })
			if err != nil || n != len(tr) {
				derr = fmt.Errorf("%s: decoded %d of %d ops: %v", enc.metric, n, len(tr), err)
			}
			ns = append(ns, float64(el)/float64(len(tr)))
		})
		if derr != nil {
			return derr
		}
		r.setSamples(enc.metric, ns)
	}

	vcProbes(r)
	return writeSpans(e, w.name, rec)
}

// setRuleCounts reports a detector snapshot's exact Fig. 2 rule counts and
// the share of accesses its lock-free paths handled.
func setRuleCounts(r *result, snap obs.Snapshot) {
	for _, d := range perLayer {
		const prefix = "core.rule."
		if len(d.Name) > len(prefix) && d.Name[:len(prefix)] == prefix {
			r.set(d.Name, float64(snap.Counters["rule."+d.Name[len(prefix):]]))
		}
	}
	fast := snap.Counters["reads.fast"] + snap.Counters["writes.fast"]
	if total := snap.Counters["reads.total"] + snap.Counters["writes.total"]; total > 0 {
		r.set("core.fastpath_share", float64(fast)/float64(total))
	}
}

// setParcheckShares derives the parcheck ratios from its own snapshot.
func setParcheckShares(r *result, s obs.Snapshot) {
	share := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	c, g := s.Counters, s.Gauges
	r.set("parcheck.fused_ops_share", share(c["fused.ops"], c["ops.access"]))
	r.set("parcheck.batches", float64(c["batches"]))
	r.set("parcheck.shard_skew", share(g["shard.accesses.max"], g["shard.accesses.min"]))
	r.set("parcheck.intern_hit_share", share(c["intern.hits"], c["intern.hits"]+c["intern.misses"]))
	r.set("parcheck.queue_max_depth", float64(g["queue.max_depth"]))
	r.set("parcheck.vc_joins_elided_share", share(c["vc.joins_elided"], c["vc.joins"]+c["vc.joins_elided"]))
	r.set("parcheck.pool_recycled_share", share(c["vc.pool.recycled"], c["vc.pool.gets"]))
}
