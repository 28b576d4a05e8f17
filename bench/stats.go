package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every timing is reported: the median with its quartiles
// and the number of samples behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), the rule
// the acceptance procedure applies to the ten-seed spreads.
func summarize(xs []float64) summary {
	s := sorted(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quantile interpolates the q-quantile of the sorted sample s at position
// q·(n+1), clamped to the sample's range; an empty sample yields NaN.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the causing span, -1 at the root
	Op     int    `json:"op"`     // rep or upload the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *spanRecorder) begin(name string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.t0)), End: -1})
	return id
}

func (r *spanRecorder) end(id int) time.Duration {
	r.spans[id].End = int64(time.Since(r.t0))
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// add records a span measured elsewhere (a replayed stage), laid end to
// end after start; it returns the span's id.
func (r *spanRecorder) add(name string, parent, op int, start int64, d time.Duration) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: start + int64(d)})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return self
}
