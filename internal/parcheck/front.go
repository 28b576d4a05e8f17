package parcheck

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// frontStage sits between the feed and the detector and does the two
// things that must happen exactly once per check.
//
// It samples: the policy decides on the *raw* variable id — the decision
// stays a pure function of (seed, var) whatever else the trace names — and
// an access to a rejected variable is counted and dropped here, before it
// can reach a table.
//
// It compacts: thread, variable and lowered-lock ids are renumbered
// densely in first-touch order, so every table behind it — core's flat
// shadow tables, the entries of every vector clock — is proportional to
// the ids the trace names, not to their magnitude: `fork 0 65000` costs a second thread, not
// 65,000 clocks each spanning its own tid. The analyses look only at the
// state an id indexes, never at the id, and restore maps reports back, so
// compaction is invisible with one exception: where several prior accesses
// are unordered with a racing access, the one a report names as evidence
// is the first in thread order, which is now first-touch order. The two
// coincide whenever threads are first named in increasing id order (every
// producer in this repository forks that way).
type frontStage struct {
	sampler *sample.Policy // nil: every access is admitted
	det     core.Detector  // receives what the stage admits, under compact ids

	tids, vars, locks idMap
	origT             []epoch.Tid // compact tid -> raw
	origX             []trace.Var // compact variable -> raw
	nLocks            uint32

	accesses, syncs                   uint64 // ops handed to the detector
	suppressedReads, suppressedWrites uint64
	suppressedVars                    uint64
}

// idMap values: unseen, a variable the sampler rejected, or a compact id
// offset by firstID.
const (
	unseen     = 0
	suppressed = 1
	firstID    = 2
)

// push is the stage's one entry: the next operation of the validated,
// lowered stream. Its switch on the kind is the only one between the feed
// and the handler.
func (f *frontStage) push(op trace.Op) {
	t := f.tid(op.T)
	switch op.Kind {
	case trace.Read, trace.Write:
		v := f.vars.get(uint32(op.X))
		if v == unseen {
			if f.sampler == nil || f.sampler.Sampled(op.X) {
				v = uint32(len(f.origX)) + firstID
				f.origX = append(f.origX, op.X)
			} else {
				v = suppressed
				f.suppressedVars++
			}
			f.vars.set(uint32(op.X), v)
		}
		if v == suppressed {
			if op.Kind == trace.Write {
				f.suppressedWrites++
			} else {
				f.suppressedReads++
			}
			return
		}
		f.accesses++
		x := trace.Var(v - firstID)
		if op.Kind == trace.Write {
			f.det.Write(t, x)
		} else {
			f.det.Read(t, x)
		}
	case trace.Acquire, trace.Release:
		v := f.locks.get(uint32(op.M))
		if v == unseen {
			v = f.nLocks + firstID
			f.nLocks++
			f.locks.set(uint32(op.M), v)
		}
		f.syncs++
		l := trace.Lock(v - firstID)
		if op.Kind == trace.Release {
			f.det.Release(t, l)
		} else {
			f.det.Acquire(t, l)
		}
	case trace.Fork:
		f.syncs++
		f.det.Fork(t, f.tid(op.U))
	default: // join
		f.syncs++
		f.det.Join(t, f.tid(op.U))
	}
}

func (f *frontStage) tid(t epoch.Tid) epoch.Tid {
	v := f.tids.get(uint32(t))
	if v == unseen {
		v = uint32(len(f.origT)) + firstID
		f.origT = append(f.origT, t)
		f.tids.set(uint32(t), v)
	}
	return epoch.Tid(v - firstID)
}

// restore rewrites the detector's reports onto the trace's own ids.
func (f *frontStage) restore(reports []core.Report) []core.Report {
	for i := range reports {
		r := &reports[i]
		r.T = f.origT[r.T]
		r.X = f.origX[r.X]
		r.Prev = epoch.Make(f.origT[r.Prev.Tid()], r.Prev.Clock())
	}
	return reports
}

// addStats records what the stage saw: the op totals of the lowered
// stream and, if the tier is on, the sampling.* accounting.
func (f *frontStage) addStats(s obs.Snapshot) {
	s.Counters["ops.total"] = f.accesses + f.syncs + f.suppressedReads + f.suppressedWrites
	s.Counters["ops.access"] = f.accesses
	s.Counters["ops.sync"] = f.syncs
	if f.sampler != nil {
		core.AddSamplingStats(s, *f.sampler, f.suppressedReads, f.suppressedWrites,
			uint64(len(f.origX)), f.suppressedVars)
	}
}

// idMap maps raw ids to uint32 values, zero meaning absent. Ids below
// maxDenseIDs live in a slice grown by doubling; anything beyond (or
// negative) spills into a map, so one huge id costs a map entry and the
// slice never exceeds 8 MiB.
type idMap struct {
	dense  []uint32
	sparse map[uint32]uint32
}

const maxDenseIDs = 1 << 21

func (m *idMap) get(id uint32) uint32 {
	if int(id) < len(m.dense) {
		return m.dense[id]
	}
	if id < maxDenseIDs {
		return 0
	}
	return m.sparse[id]
}

func (m *idMap) set(id, v uint32) {
	if id >= maxDenseIDs {
		if m.sparse == nil {
			m.sparse = map[uint32]uint32{}
		}
		m.sparse[id] = v
		return
	}
	if int(id) >= len(m.dense) {
		n := max(2*len(m.dense), int(id)+1, 64)
		grown := make([]uint32, min(n, maxDenseIDs))
		copy(grown, m.dense)
		m.dense = grown
	}
	m.dense[id] = v
}
