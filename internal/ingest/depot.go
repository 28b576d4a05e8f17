package ingest

import "repro/internal/core"

// The report depot is the service-side answer to report-volume scaling:
// a hot racy variable in a long-lived tenant stream can emit the same
// race thousands of times across uploads, and a service that stored every
// occurrence verbatim would grow without bound. Following the stackdepot
// design of the pure-Go race detector this repository's roadmap cites —
// intern once, reference everywhere — the depot interns each distinct
// report identity (everything but the detection sequence number) into a
// single aggregate that counts repetitions and remembers where they were
// first and last seen. Distinct tenants never share a depot: each tenant
// owns one instance, so interned state cannot leak across tenant
// boundaries (the end-to-end tests pin that property).

// reportKey is a report's interned identity: every core.Report field
// except Seq, which numbers detections within one check and so differs
// between otherwise-identical races.
type reportKey struct {
	detector string
	rule     int
	t        uint64
	x        int64
	prev     uint64
}

func keyOf(r core.Report) reportKey {
	return reportKey{
		detector: r.Detector,
		rule:     int(r.Rule),
		t:        uint64(r.T),
		x:        int64(r.X),
		prev:     uint64(r.Prev),
	}
}

// Aggregate is one interned report plus its repetition accounting.
type Aggregate struct {
	// Report is the first occurrence, wire-encoded; its Seq is the
	// sequence number the race had in the upload that first produced it.
	Report Report `json:"report"`
	// Count is how many occurrences collapsed into this aggregate.
	Count uint64 `json:"count"`
	// FirstUpload and LastUpload are the tenant upload ids that first and
	// most recently contained the race.
	FirstUpload int `json:"first_upload"`
	LastUpload  int `json:"last_upload"`
}

// Depot dedups and aggregates a tenant's reports under a report quota.
// It is not safe for concurrent use; the owning tenant serializes access.
type Depot struct {
	quota   int
	index   map[reportKey]int
	aggs    []Aggregate
	dropped uint64
}

// NewDepot returns an empty depot retaining at most quota distinct
// aggregates (quota <= 0 means unlimited).
func NewDepot(quota int) *Depot {
	return &Depot{quota: quota, index: map[reportKey]int{}}
}

// Add interns one report from the given upload. Repeats of an already
// interned race always aggregate, even over quota — the quota bounds
// distinct retained races, not repetition counts. A fresh race beyond the
// quota is dropped (and counted). Add reports whether the race was fresh
// and whether it was kept.
func (d *Depot) Add(upload int, r core.Report) (fresh, kept bool) {
	k := keyOf(r)
	if i, ok := d.index[k]; ok {
		d.aggs[i].Count++
		d.aggs[i].LastUpload = upload
		return false, true
	}
	if d.quota > 0 && len(d.aggs) >= d.quota {
		d.dropped++
		return true, false
	}
	d.index[k] = len(d.aggs)
	d.aggs = append(d.aggs, Aggregate{
		Report:      FromCore(r),
		Count:       1,
		FirstUpload: upload,
		LastUpload:  upload,
	})
	return true, true
}

// Aggregates returns a copy of the retained aggregates in first-seen
// order (never nil, so JSON encodes []).
func (d *Depot) Aggregates() []Aggregate {
	out := make([]Aggregate, len(d.aggs))
	copy(out, d.aggs)
	return out
}

// Len returns the number of distinct retained aggregates.
func (d *Depot) Len() int { return len(d.aggs) }

// Dropped returns how many distinct races the quota suppressed.
func (d *Depot) Dropped() uint64 { return d.dropped }

// restore rebuilds the intern index from persisted aggregates (state
// reload after a drain/restart cycle).
func (d *Depot) restore(aggs []Aggregate, dropped uint64) {
	d.aggs = append([]Aggregate(nil), aggs...)
	d.dropped = dropped
	d.index = make(map[reportKey]int, len(aggs))
	for i, a := range d.aggs {
		d.index[keyOf(a.Report.Core())] = i
	}
}
