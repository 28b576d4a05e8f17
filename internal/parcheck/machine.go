package parcheck

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// machineStats is the snapshot of the offline check's vft-v2 detector, the
// kernel's single-caller Machine (which an offline check may run because
// it has one goroutine), under core.V2's key set: the shared assembly,
// then the variable table with the footprint the atomic representation of
// the same fields reports.
func machineStats(m *kernel.Machine) obs.Snapshot {
	t := m.Tally()
	s := core.Tally{
		Rules:     m.RuleCounts(),
		SlowReads: t.SlowReads, SlowWrites: t.SlowWrites,
		Recorded: uint64(len(m.Reports())), Dropped: t.Dropped,
		Threads: t.Threads, Locks: t.Locks,
	}.Snapshot()
	core.AddVarTable(s, t.Vars, t.Shared,
		core.EpochShadowBytes(t.Threads, t.Locks, t.Vars, t.VecEntries))
	return s
}
