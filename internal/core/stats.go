package core

import (
	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/vc"
)

// StatsSource is the optional observability extension of Detector: a
// snapshot of the detector's internal counters — rule firings, fast- vs
// slow-path splits, report-sink accounting, shadow-table occupancy and
// vector-clock costs — in obs's flat name space. It is deliberately a
// separate interface so Detector stays the six-handler Fig. 3/4 contract.
//
// Stats must be called at quiescence (no handler running): it sums the
// per-thread counters that make the hot paths contention-free, and those
// are only coherent once their owning threads have stopped. To serve a
// stats snapshot from a live endpoint, freeze it into a registry with
// obs.Snapshot.Source after the run quiesces.
type StatsSource interface {
	Stats() obs.Snapshot
}

// readRules and writeRules partition the access rules of Fig. 2; every
// read handler execution fires exactly one of readRules, and every write
// handler execution exactly one of writeRules, so their sums are total
// access counts.
var readRules = [...]spec.Rule{
	spec.ReadSameEpoch, spec.ReadSharedSameEpoch, spec.ReadExclusive,
	spec.ReadShare, spec.ReadShared, spec.WriteReadRace,
}

var writeRules = [...]spec.Rule{
	spec.WriteSameEpoch, spec.WriteExclusive, spec.WriteShared,
	spec.WriteWriteRace, spec.ReadWriteRace, spec.SharedWriteRace,
}

// Tally is what the snapshot of a vector-clock detector is assembled from,
// whatever holds the state: syncBase's concurrent tables (statsCommon) or
// the unsynchronized offline machine in internal/parcheck. One assembly
// (Snapshot) keeps the two key sets one key set.
type Tally struct {
	Rules [spec.NumRules]uint64
	// SlowReads/SlowWrites are the accesses a pure block missed (for a
	// sequential run: every access that fired no same-epoch rule); Retries
	// the optimistic-validation restarts of the FT baselines.
	SlowReads, SlowWrites, Retries uint64
	Recorded, Dropped              uint64 // report-sink accounting
	// Threads and Locks hold every thread's and every lock's clock, in
	// table order.
	Threads, Locks []*vc.VC
}

// Snapshot assembles the counters shared by every vector-clock detector:
// rule firings, access totals split into fast (pure-block) and slow
// (lock-taking) executions, optimistic retries, report-sink accounting,
// thread/lock table occupancy and the aggregated vector-clock costs.
func (t Tally) Snapshot() obs.Snapshot {
	s := obs.NewSnapshot()
	counts := t.Rules
	for r := spec.Rule(1); r < spec.NumRules; r++ {
		if n := counts[r]; n > 0 {
			s.Counters["rule."+r.Key()] = n
		}
	}

	var reads, writes uint64
	for _, r := range readRules {
		reads += counts[r]
	}
	for _, r := range writeRules {
		writes += counts[r]
	}

	var clocks vc.Metrics
	maxEntries := 0
	for _, tables := range [][]*vc.VC{t.Threads, t.Locks} {
		for _, c := range tables {
			clocks.Add(c.Metrics())
			maxEntries = max(maxEntries, c.Size())
		}
	}

	s.Counters["reads.total"] = reads
	s.Counters["reads.slow"] = t.SlowReads
	s.Counters["reads.fast"] = reads - t.SlowReads
	s.Counters["writes.total"] = writes
	s.Counters["writes.slow"] = t.SlowWrites
	s.Counters["writes.fast"] = writes - t.SlowWrites
	s.Counters["handler.retries"] = t.Retries
	// Share transitions are the epoch-overflow promotions to SHARED: after
	// one, the variable pays vector-clock costs forever (§5).
	s.Counters["promotions.to_shared"] = counts[spec.ReadShare]
	s.Counters["reports.recorded"] = t.Recorded
	s.Counters["reports.dropped"] = t.Dropped

	addClockMetrics(s, clocks)
	s.Gauges["vc.max_entries"] = uint64(maxEntries)
	s.Gauges["shadow.threads"] = uint64(len(t.Threads))
	s.Gauges["shadow.locks"] = uint64(len(t.Locks))
	return s
}

// clocks returns every thread's and every lock's clock, in table order.
func (b *syncBase) clocks() (threads, locks []*vc.VC) {
	for _, st := range b.threads.Snapshot() {
		threads = append(threads, st.vc)
	}
	for _, lk := range b.locks.Snapshot() {
		locks = append(locks, lk.vc)
	}
	return threads, locks
}

// statsCommon is the Tally of the shared tables, assembled. Call at
// quiescence.
func (b *syncBase) statsCommon() obs.Snapshot {
	t := Tally{
		Rules:    b.RuleCounts(),
		Recorded: uint64(len(b.sink.snapshot())),
		Dropped:  b.sink.droppedCount(),
	}
	t.Threads, t.Locks = b.clocks()
	for _, st := range b.threads.Snapshot() {
		t.SlowReads += st.slowReads
		t.SlowWrites += st.slowWrites
		t.Retries += st.retries
	}
	return t.Snapshot()
}

func addClockMetrics(s obs.Snapshot, m vc.Metrics) {
	s.Counters["vc.grows"] += m.Grows
	s.Counters["vc.joins"] += m.Joins
	s.Counters["vc.join_scanned"] += m.JoinScanned
}

// AddVarTable records a detector's variable shadow table: occupancy, how
// many variables have been promoted to the Shared representation (pass -1
// for detectors without one), and the semantic footprint.
func AddVarTable(s obs.Snapshot, entries, shared int, bytes uint64) {
	s.Gauges["shadow.vars"] = uint64(entries)
	if shared >= 0 {
		s.Gauges["shadow.vars_shared"] = uint64(shared)
	}
	s.Gauges["shadow.bytes"] = bytes
}

// countSharedAtomic counts variables currently in the Shared read state;
// quiescence makes the unlocked loads exact.
func countSharedAtomic(t *shadow.Table[atomicVarState]) int {
	n := 0
	for _, sx := range t.Snapshot() {
		if sx.loadR().IsShared() {
			n++
		}
	}
	return n
}

// Stats implements StatsSource for VerifiedFT-v1.
func (d *V1) Stats() obs.Snapshot {
	s := d.statsCommon()
	shared := 0
	for _, sx := range d.vars.Snapshot() {
		if sx.r.IsShared() {
			shared++
		}
	}
	AddVarTable(s, d.vars.Len(), shared, d.ShadowBytes())
	return s
}

// Stats implements StatsSource for VerifiedFT-v1.5.
func (d *V15) Stats() obs.Snapshot {
	s := d.statsCommon()
	AddVarTable(s, d.vars.Len(), countSharedAtomic(d.vars), d.ShadowBytes())
	return s
}

// Stats implements StatsSource for VerifiedFT-v2.
func (d *V2) Stats() obs.Snapshot {
	s := d.statsCommon()
	AddVarTable(s, d.vars.Len(), countSharedAtomic(d.vars), d.ShadowBytes())
	return s
}

// Stats implements StatsSource for FT-Mutex.
func (d *FTMutex) Stats() obs.Snapshot {
	s := d.statsCommon()
	AddVarTable(s, d.vars.Len(), countSharedAtomic(d.vars), d.ShadowBytes())
	return s
}

// Stats implements StatsSource for FT-CAS.
func (d *FTCAS) Stats() obs.Snapshot {
	s := d.statsCommon()
	shared := 0
	for _, sx := range d.vars.Snapshot() {
		if r, _ := unpackRW(sx.rw.Load()); r == Shared32 {
			shared++
		}
	}
	AddVarTable(s, d.vars.Len(), shared, d.ShadowBytes())
	return s
}

// Stats implements StatsSource for DJIT, which has no epochs and hence no
// Shared representation; its per-variable clocks contribute to the vc
// aggregates instead.
func (d *DJIT) Stats() obs.Snapshot {
	s := d.statsCommon()
	var clocks vc.Metrics
	for _, sx := range d.vars.Snapshot() {
		clocks.Add(sx.rvc.Metrics())
		clocks.Add(sx.wvc.Metrics())
	}
	addClockMetrics(s, clocks)
	AddVarTable(s, d.vars.Len(), -1, d.ShadowBytes())
	return s
}

// Compile-time checks: every detector is a StatsSource.
var (
	_ StatsSource = (*V1)(nil)
	_ StatsSource = (*V15)(nil)
	_ StatsSource = (*V2)(nil)
	_ StatsSource = (*FTMutex)(nil)
	_ StatsSource = (*FTCAS)(nil)
	_ StatsSource = (*DJIT)(nil)
)
