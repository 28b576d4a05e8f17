package core

import (
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Sampling is the production-overhead detector tier: a wrapper that
// forwards every synchronization event to the precise inner detector but
// filters reads and writes through a per-variable decision table. Because
// the inner detectors' access handlers never mutate thread or lock clocks
// (only the accessed variable's shadow word — the property the parallel
// checker's prepass split also rests on), suppressing a variable's
// accesses leaves the clock evolution identical, so the wrapper's reports
// are exactly the precise tier's reports restricted to the sampled
// variables: identical at rate 1.0, a strict subset below it.
//
// The hot path for an unsampled access is one atomic shadow-word load and
// a compare — no clock, no epoch, no per-variable state beyond the
// four-byte decision word. Sampled variables are remapped onto a dense
// inner id space assigned at first touch, so the inner detector's shadow
// tables (epochs, read vectors, clocks once Shared) are materialized only
// for the variables actually under analysis; reports are translated back
// to the original variable ids on the way out. The remapping never leaks:
// a caller sees original ids everywhere.
type Sampling struct {
	inner Detector
	words *sample.Words

	// suppressed counts filtered accesses in owner-written padded
	// per-thread slots (the latency sampler's discipline), summed at
	// quiescence, so the unsampled hot path stays contention-free. The
	// slots live in fixed-size chunks behind a flat directory rather than
	// in a shadow.Table of per-slot pointers: slot addresses compute from
	// one atomic chunk load that does not depend on the decision-word
	// load (the two issue in parallel), where the pointer table would add
	// a dependent pointer chase to every filtered access — measurable on
	// the micro bench, which gates this path at ~2x a no-op detector.
	// Chunks are installed once and never move, so growth cannot lose
	// concurrent owners' increments.
	suppressed suppressedTable
}

// suppressedSlot is one thread's suppressed-access tally, padded so
// neighboring threads' counters never share a cache line.
type suppressedSlot struct {
	reads, writes uint64
	_             [48]byte
}

// suppressedChunk holds the slots for one 256-tid band; the directory of
// 256 chunks spans the whole epoch.MaxTid space with chunks allocated
// only for tid bands actually seen (one chunk for nearly every real run).
type suppressedChunk [256]suppressedSlot

type suppressedTable struct {
	chunks [256]atomic.Pointer[suppressedChunk]
}

// install publishes the chunk for a tid band on first touch. Losing the
// CAS just means another thread installed the same band first; the
// published chunk is adopted either way. It is the cold half of the slot
// lookup — Read and Write hand-inline the hot half (one atomic chunk
// load and an index) so a filtered access never pays a function call.
func (tb *suppressedTable) install(band int) *suppressedChunk {
	tb.chunks[band].CompareAndSwap(nil, new(suppressedChunk))
	return tb.chunks[band].Load()
}

// NewSampling wraps inner with the sampling tier under pol. Its decision
// table starts empty, and inner sees only the dense ids of the variables
// pol samples, so inner's tables grow with the sampled variables alone.
func NewSampling(inner Detector, pol sample.Policy) *Sampling {
	return &Sampling{inner: inner, words: sample.NewWords(pol)}
}

// NewSampled is the online constructor every caller shares: the named
// variant under cfg, wrapped in the sampling tier when pol is non-nil.
func NewSampled(variant string, cfg Config, pol *sample.Policy) (Detector, error) {
	inner, err := New(variant, cfg)
	if err != nil || pol == nil {
		return inner, err
	}
	return NewSampling(inner, *pol), nil
}

// Policy returns the wrapper's sampling policy.
func (d *Sampling) Policy() sample.Policy { return d.words.Policy() }

// Name forwards the inner variant's name: the sampled tier is a filter
// over a precise variant, not a different analysis, and keeping the name
// is what makes rate-1.0 report lists byte-identical to the precise
// tier's (reports carry the detector name).
func (d *Sampling) Name() string { return d.inner.Name() }

// Read and Write are the tier's whole point, so their decided-word fast
// path is written out inline: Words.Slice and atomic.Pointer.Load both
// inline, and Read/Write are virtual-call targets whose bodies carry no
// inline budget of their own, so neither the decision check nor the
// suppressed tally costs a function call. Only first touches (an
// Undecided word, an uninstalled counter chunk) fall into calls.
func (d *Sampling) Read(t epoch.Tid, x trace.Var) {
	var v uint32
	if w := d.words.Slice(); int(uint32(x)) < len(w) {
		v = atomic.LoadUint32(&w[uint32(x)])
	}
	if v == sample.Undecided {
		v = d.words.Word(x)
	}
	if id, ok := sample.SampledID(v); ok {
		d.inner.Read(t, trace.Var(id))
		return
	}
	c := d.suppressed.chunks[int(t)>>8].Load()
	if c == nil {
		c = d.suppressed.install(int(t) >> 8)
	}
	c[int(t)&255].reads++
}

func (d *Sampling) Write(t epoch.Tid, x trace.Var) {
	var v uint32
	if w := d.words.Slice(); int(uint32(x)) < len(w) {
		v = atomic.LoadUint32(&w[uint32(x)])
	}
	if v == sample.Undecided {
		v = d.words.Word(x)
	}
	if id, ok := sample.SampledID(v); ok {
		d.inner.Write(t, trace.Var(id))
		return
	}
	c := d.suppressed.chunks[int(t)>>8].Load()
	if c == nil {
		c = d.suppressed.install(int(t) >> 8)
	}
	c[int(t)&255].writes++
}

func (d *Sampling) Acquire(t epoch.Tid, m trace.Lock) { d.inner.Acquire(t, m) }
func (d *Sampling) Release(t epoch.Tid, m trace.Lock) { d.inner.Release(t, m) }
func (d *Sampling) Fork(t, u epoch.Tid)               { d.inner.Fork(t, u) }
func (d *Sampling) Join(t, u epoch.Tid)               { d.inner.Join(t, u) }

// Reports returns the inner reports with variable ids translated back
// from the dense inner space to the caller's original ids.
func (d *Sampling) Reports() []Report {
	out := d.inner.Reports()
	for i := range out {
		out[i].X = d.words.OriginalVar(int(out[i].X))
	}
	return out
}

func (d *Sampling) RuleCounts() [spec.NumRules]uint64 { return d.inner.RuleCounts() }

// Counts returns how many decided variables were sampled and suppressed.
func (d *Sampling) Counts() (sampled, suppressed uint64) { return d.words.Counts() }

// SuppressedAccesses sums the filtered read and write counts. Call at
// quiescence.
func (d *Sampling) SuppressedAccesses() (reads, writes uint64) {
	for i := range d.suppressed.chunks {
		c := d.suppressed.chunks[i].Load()
		if c == nil {
			continue
		}
		for j := range c {
			reads += c[j].reads
			writes += c[j].writes
		}
	}
	return reads, writes
}

// Stats implements StatsSource: the inner detector's snapshot plus the
// tier's own sampling.* accounting — suppressed accesses, the decided
// variable split, the configured rate and the effective rate actually
// observed over the decided population (both in parts per million, obs
// instruments being integral). Call at quiescence.
func (d *Sampling) Stats() obs.Snapshot {
	s := obs.NewSnapshot()
	if ss, ok := d.inner.(StatsSource); ok {
		s = ss.Stats()
	}
	reads, writes := d.SuppressedAccesses()
	sampled, suppressedVars := d.words.Counts()
	AddSamplingStats(s, d.words.Policy(), reads, writes, sampled, suppressedVars)
	s.Gauges["sampling.words.bytes"] = d.words.Bytes()
	return s
}

// AddSamplingStats writes the sampling tier's accounting into s: filtered
// accesses, the decided-variable split, and the configured and observed
// rates. It is the one definition of the sampling.* keys, shared by the
// online wrapper and the offline checker's filter.
func AddSamplingStats(s obs.Snapshot, pol sample.Policy, suppressedReads, suppressedWrites, sampledVars, suppressedVars uint64) {
	s.Counters["sampling.suppressed_reads"] = suppressedReads
	s.Counters["sampling.suppressed_writes"] = suppressedWrites
	s.Gauges["sampling.vars.sampled"] = sampledVars
	s.Gauges["sampling.vars.suppressed"] = suppressedVars
	s.Gauges["sampling.rate_ppm"] = RatePPM(pol.Rate)
	if total := sampledVars + suppressedVars; total > 0 {
		s.Gauges["sampling.effective_rate_ppm"] = sampledVars * 1_000_000 / total
	}
}

// RatePPM renders a sampling rate as integral parts per million for obs
// gauges.
func RatePPM(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return 1_000_000
	}
	return uint64(rate * 1_000_000)
}

// ShadowBytes implements ShadowSized: the inner tables (materialized only
// for sampled variables) plus the decision words and suppressed-counter
// stripes. At low rates this is dominated by the four bytes per touched
// variable id.
func (d *Sampling) ShadowBytes() uint64 {
	var inner uint64
	if ss, ok := d.inner.(ShadowSized); ok {
		inner = ss.ShadowBytes()
	}
	var slots uint64
	for i := range d.suppressed.chunks {
		if d.suppressed.chunks[i].Load() != nil {
			slots += 256 * 64
		}
	}
	return inner + d.words.Bytes() + slots
}

var (
	_ Detector    = (*Sampling)(nil)
	_ StatsSource = (*Sampling)(nil)
	_ ShadowSized = (*Sampling)(nil)
)
