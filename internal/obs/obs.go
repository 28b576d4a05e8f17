// Package obs is the observability core underneath the detectors and
// tools: contention-free metric instruments plus a snapshot/delta API and
// export helpers (JSON, expvar, HTTP).
//
// The paper's entire evaluation (§8, Table 1) is an overhead argument —
// VerifiedFT-v2 matches FT-CAS because the three lock-free fast paths
// absorb the overwhelming majority of accesses — so the instruments here
// are designed never to perturb what they measure:
//
//   - Counter is striped per thread, following the ThreadState.rules
//     pattern of internal/core: each stripe is written by one thread only,
//     so increments are uncontended atomic adds on private cache lines and
//     reads sum the stripes.
//   - Gauge is a single atomic word with last-write and monotonic-max
//     update modes; gauges are set on cold paths (table growth, snapshot
//     assembly), never per access.
//   - Histogram buckets by power of two (bucket i counts values v with
//     bits.Len64(v) == i), which turns Observe into a handful of
//     arithmetic instructions plus one atomic add; it is intended for
//     *sampled* latency recording, not per-event timing.
//
// A Registry names instruments and aggregates them — together with any
// registered external sources, such as a detector's Stats() — into a
// Snapshot, a plain JSON-serializable value supporting deltas between two
// points in time. Nothing in this package knows about detectors; the
// dependency points the other way (internal/core imports obs).
package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter striped by a small
// non-negative integer id — in this repository, the acting thread's Tid.
// Increments to distinct stripes never contend; increments to the same
// stripe from its owning thread are uncontended atomic adds. Value sums
// the stripes and may run concurrently with increments (the total is then
// a linearizable lower bound, exact at quiescence).
type Counter struct {
	mu sync.Mutex
	p  atomic.Pointer[[]*stripe]
}

// stripe pads the hot word to a cache line so adjacent stripes sharing an
// allocation span never false-share.
type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// NewCounter returns a counter with no stripes; a stripe is created the
// first time an id at or beyond it is named.
func NewCounter() *Counter {
	c := &Counter{}
	c.p.Store(new([]*stripe))
	return c
}

// Add adds n to the stripe for id. It is safe for concurrent use; callers
// that dedicate one stripe per thread get contention-free counting.
func (c *Counter) Add(id int, n uint64) {
	c.stripe(id).n.Add(n)
}

// Inc adds one to the stripe for id.
func (c *Counter) Inc(id int) { c.Add(id, 1) }

func (c *Counter) stripe(id int) *stripe {
	if id < 0 {
		panic(fmt.Sprintf("obs: negative stripe id %d", id))
	}
	s := *c.p.Load()
	if id < len(s) {
		return s[id]
	}
	return c.grow(id)
}

// grow extends the stripe table, sharing existing stripes with concurrent
// readers exactly as shadow.Table does.
func (c *Counter) grow(id int) *stripe {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := *c.p.Load()
	if id < len(s) {
		return s[id]
	}
	newLen := len(s) * 2
	if newLen <= id {
		newLen = id + 1
	}
	grown := make([]*stripe, newLen)
	copy(grown, s)
	for i := len(s); i < newLen; i++ {
		grown[i] = &stripe{}
	}
	c.p.Store(&grown)
	return grown[id]
}

// Value returns the sum over all stripes.
func (c *Counter) Value() uint64 {
	var total uint64
	for _, s := range *c.p.Load() {
		total += s.n.Load()
	}
	return total
}

// Gauge is a single instantaneous value. Set overwrites; Max raises the
// value monotonically (the mode used for high-water marks such as table
// sizes). Both are safe for concurrent use.
type Gauge struct {
	v atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v uint64) { g.v.Store(v) }

// Max raises the gauge to v if v is larger (monotonic update).
func (g *Gauge) Max(v uint64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adds n to the gauge.
func (g *Gauge) Add(n uint64) { g.v.Add(n) }

// Sub subtracts n from the gauge. Add/Sub pairs turn a gauge into a
// level instrument (in-flight requests, queue depth): increments on entry,
// decrements on exit, zero at quiescence. Callers must keep Subs matched
// with prior Adds; an excess Sub wraps, exactly like an atomic counter.
func (g *Gauge) Sub(n uint64) { g.v.Add(^(n - 1)) }

// Value returns the current value.
func (g *Gauge) Value() uint64 { return g.v.Load() }

// HistBuckets is the number of histogram buckets: bucket 0 counts the
// value 0 and bucket i (1 ≤ i < HistBuckets-1) counts values in
// [2^(i-1), 2^i - 1]; the last bucket absorbs everything larger. With 40
// buckets a nanosecond-valued histogram spans 1ns to ~9 minutes before
// saturating.
const HistBuckets = 40

// Histogram is a fixed-shape power-of-two-bucket histogram. Observe costs
// one bits.Len64 and three atomic adds; it is cheap enough for sampled hot
// paths and for unsampled cold paths.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	b := bucketOf(v)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucketOf returns the bucket index for v: the number of significant bits,
// clamped to the last bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the largest
// value the bucket counts); the last bucket is unbounded and reports the
// maximum uint64.
func BucketBound(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= HistBuckets-1:
		return ^uint64(0)
	default:
		return 1<<uint(i) - 1
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SnapshotHist captures the histogram's current contents.
func (h *Histogram) SnapshotHist() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out.Buckets = append(out.Buckets, BucketCount{Le: BucketBound(i), N: n})
		}
	}
	return out
}

// Registry names instruments and external snapshot sources and assembles
// them into one Snapshot. Instrument lookups are get-or-create and cheap
// enough for setup paths; hot paths should hold on to the returned
// instrument rather than re-resolving the name per event.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sources  map[string]SourceFunc
	order    []string // source registration order, for stable snapshots
}

// SourceFunc produces an external component's snapshot on demand; a
// Registry merges each source's maps under "<sourcename>." key prefixes.
type SourceFunc func() Snapshot

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		sources:  map[string]SourceFunc{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterSource attaches an external snapshot source under the given
// name. If the name is taken, a numeric suffix is appended so no source is
// silently replaced; the effective name is returned. The function is
// called at Snapshot time — sources whose counters are not safe for
// concurrent reads (for example a detector's per-thread rule counters)
// should instead be frozen with Snapshot.Source once quiescent.
func (r *Registry) RegisterSource(name string, fn SourceFunc) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	eff := name
	for i := 2; ; i++ {
		if _, taken := r.sources[eff]; !taken {
			break
		}
		eff = fmt.Sprintf("%s.%d", name, i)
	}
	r.sources[eff] = fn
	r.order = append(r.order, eff)
	return eff
}

// Snapshot assembles the current values of every instrument and source.
// It is safe to call concurrently with instrument updates; see
// RegisterSource for the source-side caveat.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	order := append([]string(nil), r.order...)
	sources := make(map[string]SourceFunc, len(r.sources))
	for k, v := range r.sources {
		sources[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		s.Histograms[name] = h.SnapshotHist()
	}
	for _, name := range order {
		s.mergePrefixed(name+".", sources[name]())
	}
	return s
}

// Snapshot is one observed point in time: flat name→value maps, directly
// JSON-serializable and diffable. The zero value is empty but not usable
// for writes; build snapshots through Registry.Snapshot or NewSnapshot.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is a histogram's exported contents; Buckets lists only
// occupied buckets, each with its inclusive upper bound.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one occupied histogram bucket.
type BucketCount struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// NewSnapshot returns an empty snapshot with allocated maps, for callers
// (detector Stats methods) that assemble snapshots by hand.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
}

// Source wraps a frozen snapshot as a SourceFunc: the registry will serve
// exactly this value from now on. This is the safe way to publish a
// detector's final stats into a long-lived registry — the snapshot is
// taken once, at quiescence, and scrapes never touch the detector again.
func (s Snapshot) Source() SourceFunc {
	return func() Snapshot { return s }
}

// mergePrefixed copies other into s with every key prefixed.
func (s *Snapshot) mergePrefixed(prefix string, other Snapshot) {
	for k, v := range other.Counters {
		s.Counters[prefix+k] = v
	}
	for k, v := range other.Gauges {
		s.Gauges[prefix+k] = v
	}
	for k, v := range other.Histograms {
		s.Histograms[prefix+k] = v
	}
}

// Delta returns the change from prev to s: counters and histogram counts
// subtract (entries absent from prev subtract zero; counters are
// monotonic, so negative deltas are clamped to zero), while gauges carry
// s's instantaneous values unchanged.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := NewSnapshot()
	for k, v := range s.Counters {
		out.Counters[k] = monotonicSub(v, prev.Counters[k])
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v.delta(prev.Histograms[k])
	}
	return out
}

func monotonicSub(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

func (h HistogramSnapshot) delta(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: monotonicSub(h.Count, prev.Count),
		Sum:   monotonicSub(h.Sum, prev.Sum),
	}
	prevBy := map[uint64]uint64{}
	for _, b := range prev.Buckets {
		prevBy[b.Le] = b.N
	}
	for _, b := range h.Buckets {
		if n := monotonicSub(b.N, prevBy[b.Le]); n > 0 {
			out.Buckets = append(out.Buckets, BucketCount{Le: b.Le, N: n})
		}
	}
	return out
}
