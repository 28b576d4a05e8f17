package parcheck

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sample"
)

// addFrontStats records what the front stage saw: the op totals of the
// lowered stream and, if the tier is on, the sampling.* accounting.
func addFrontStats(s obs.Snapshot, f *kernel.Front, pol *sample.Policy) {
	s.Counters["ops.total"] = f.Accesses + f.Syncs + f.SuppressedReads + f.SuppressedWrites
	s.Counters["ops.access"] = f.Accesses
	s.Counters["ops.sync"] = f.Syncs
	if pol != nil {
		sampled, rejected := f.Vars()
		core.AddSamplingStats(s, *pol, f.SuppressedReads, f.SuppressedWrites, uint64(sampled), uint64(rejected))
	}
}
