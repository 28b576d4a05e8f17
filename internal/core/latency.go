package core

import (
	"time"

	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
)

// latencySampler wraps a detector and records sampled per-handler wall
// times into power-of-two histograms (latency.read_ns etc.) of an obs
// registry. Sampling is per thread: each thread counts its own events in
// an owner-written padded slot and times every LatencySampleInterval-th
// one, so the common case adds one table lookup and an increment — no
// clock reads, no shared writes. Even so, a sampled timing perturbs the
// access it measures (time.Now costs more than a v2 pure block), which is
// why the benchmark harness runs the sampler only in a separate untimed
// metrics pass and never inside the timed overhead loops.
type latencySampler struct {
	inner Detector
	ticks *shadow.Table[latTick]

	read, write, acquire, release, fork, join *obs.Histogram
}

// latTick is a per-thread event countdown, padded like an obs stripe so
// neighboring threads' counters never share a cache line.
type latTick struct {
	n uint64
	_ [56]byte
}

// LatencySampleInterval is InstrumentLatency's stride: every 64th event a
// thread performs is timed. Dense enough to fill histograms on realistic
// runs, sparse enough that the sampled run stays usable.
const LatencySampleInterval = 64

// InstrumentLatency wraps d so that every LatencySampleInterval-th event
// per thread is timed into the registry's latency.* histograms (values in
// nanoseconds). The wrapper forwards Name, Reports, RuleCounts and Stats
// to d; unwrap with LatencyInner.
func InstrumentLatency(d Detector, reg *obs.Registry) Detector {
	return &latencySampler{
		inner:   d,
		ticks:   shadow.NewTable(func(int) *latTick { return &latTick{} }),
		read:    reg.Histogram("latency.read_ns"),
		write:   reg.Histogram("latency.write_ns"),
		acquire: reg.Histogram("latency.acquire_ns"),
		release: reg.Histogram("latency.release_ns"),
		fork:    reg.Histogram("latency.fork_ns"),
		join:    reg.Histogram("latency.join_ns"),
	}
}

// LatencyInner returns the detector wrapped by InstrumentLatency, or d
// itself if it is not a latency sampler.
func LatencyInner(d Detector) Detector {
	if l, ok := d.(*latencySampler); ok {
		return l.inner
	}
	return d
}

// sampleNow advances thread t's event count and reports whether this event
// should be timed.
func (l *latencySampler) sampleNow(t epoch.Tid) bool {
	tk := l.ticks.Get(int(t))
	tk.n++
	return tk.n%LatencySampleInterval == 0
}

func (l *latencySampler) Name() string { return l.inner.Name() }

func (l *latencySampler) Read(t epoch.Tid, x trace.Var) {
	if !l.sampleNow(t) {
		l.inner.Read(t, x)
		return
	}
	start := time.Now()
	l.inner.Read(t, x)
	l.read.Observe(uint64(time.Since(start)))
}

func (l *latencySampler) Write(t epoch.Tid, x trace.Var) {
	if !l.sampleNow(t) {
		l.inner.Write(t, x)
		return
	}
	start := time.Now()
	l.inner.Write(t, x)
	l.write.Observe(uint64(time.Since(start)))
}

func (l *latencySampler) Acquire(t epoch.Tid, m trace.Lock) {
	if !l.sampleNow(t) {
		l.inner.Acquire(t, m)
		return
	}
	start := time.Now()
	l.inner.Acquire(t, m)
	l.acquire.Observe(uint64(time.Since(start)))
}

func (l *latencySampler) Release(t epoch.Tid, m trace.Lock) {
	if !l.sampleNow(t) {
		l.inner.Release(t, m)
		return
	}
	start := time.Now()
	l.inner.Release(t, m)
	l.release.Observe(uint64(time.Since(start)))
}

func (l *latencySampler) Fork(t, u epoch.Tid) {
	if !l.sampleNow(t) {
		l.inner.Fork(t, u)
		return
	}
	start := time.Now()
	l.inner.Fork(t, u)
	l.fork.Observe(uint64(time.Since(start)))
}

func (l *latencySampler) Join(t, u epoch.Tid) {
	if !l.sampleNow(t) {
		l.inner.Join(t, u)
		return
	}
	start := time.Now()
	l.inner.Join(t, u)
	l.join.Observe(uint64(time.Since(start)))
}

func (l *latencySampler) Reports() []Report { return l.inner.Reports() }

func (l *latencySampler) RuleCounts() [spec.NumRules]uint64 { return l.inner.RuleCounts() }

// Stats forwards to the wrapped detector when it is a StatsSource; the
// sampler's own output lives in the registry's histograms.
func (l *latencySampler) Stats() obs.Snapshot {
	if ss, ok := l.inner.(StatsSource); ok {
		return ss.Stats()
	}
	return obs.NewSnapshot()
}

var (
	_ Detector    = (*latencySampler)(nil)
	_ StatsSource = (*latencySampler)(nil)
)
