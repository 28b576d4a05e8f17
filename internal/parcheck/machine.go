package parcheck

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// machine is VerifiedFT-v2 for one goroutine: the state core.V2 keeps —
// a clock and cached epoch per thread, a release clock per lock, R, W and
// the read vector per variable — in plain slices indexed by the front
// stage's compact ids, with none of what makes core.V2 safe to call from
// many threads at once (atomic fields, the per-variable mutex, tables
// that publish their growth). An offline check has one caller, so that
// discipline guards state nobody else can reach; EXPERIMENTS.md E27 has
// what it cost.
//
// It is not a second transcription of the analysis. An access is v2's
// pure block (the same-epoch tests of Fig. 4) followed by the Fig. 2
// kernel every core variant calls, core.StepRead/StepWrite; the four sync
// handlers are syncBase's bodies on the same vc.Join/Assign/Inc. core.V2
// stays the reference: TestOfflineCheckIsBareReplay,
// TestMachineStatsKeysMatchV2 and FuzzParallelEquivalence hold reports
// and counters to a bare core.New("vft-v2") replay.
type machine struct {
	threads []threadState
	locks   []*vc.VC // Sm.V, the clock of the lock's last release
	vars    []varState

	maxPerVar int               // report cap per variable, 0 = none
	perVar    map[trace.Var]int // reports admitted so far, kept only under a cap
	reports   []core.Report
	dropped   uint64

	// One caller, so one tally rather than one per thread.
	rules                            [spec.NumRules]uint64
	slowReads, slowWrites            uint64
	threadGrows, lockGrows, varGrows uint64 // reallocations past the hints
}

// threadState is St: the thread's clock and its cached epoch E_t, which
// only the four sync handlers change.
type threadState struct {
	e  epoch.Epoch
	vc *vc.VC
}

// varState is Sx by value. The zero value is the initial state, r = w =
// 0@0 and no read vector, as core's detectors initialize.
type varState struct {
	r, w epoch.Epoch
	v    core.ReadVec // allocated by the Share transition
}

// newMachine returns an empty machine. The hints are counts of distinct
// threads, locks and variables; they reserve slice capacity and nothing
// else, so a zero hint allocates nothing up front.
func newMachine(cfg core.Config) *machine {
	return &machine{
		threads:   make([]threadState, 0, cfg.Threads),
		locks:     make([]*vc.VC, 0, cfg.Locks),
		vars:      make([]varState, 0, cfg.Vars),
		maxPerVar: cfg.MaxReportsPerVar,
	}
}

func (m *machine) Name() string { return "vft-v2" }

// thread returns St, valid until the next call of thread.
func (m *machine) thread(t epoch.Tid) *threadState {
	if int(t) >= len(m.threads) {
		m.growThreads(int(t) + 1)
	}
	return &m.threads[t]
}

// growThreads extends the table to n threads, each starting at t@1.
func (m *machine) growThreads(n int) {
	if n > cap(m.threads) {
		m.threadGrows++
	}
	for t := len(m.threads); t < n; t++ {
		c := vc.New()
		c.Inc(epoch.Tid(t))
		m.threads = append(m.threads, threadState{e: c.Get(epoch.Tid(t)), vc: c})
	}
}

func (m *machine) lock(l trace.Lock) *vc.VC {
	if int(l) >= len(m.locks) {
		if int(l) >= cap(m.locks) {
			m.lockGrows++
		}
		for len(m.locks) <= int(l) {
			m.locks = append(m.locks, vc.New())
		}
	}
	return m.locks[l]
}

// variable returns Sx, valid until the next call of variable.
func (m *machine) variable(x trace.Var) *varState {
	if int(x) >= len(m.vars) {
		if int(x) >= cap(m.vars) {
			m.varGrows++
		}
		for len(m.vars) <= int(x) {
			m.vars = append(m.vars, varState{})
		}
	}
	return &m.vars[x]
}

// Read handles rd(t,x): Fig. 4's pure block, then the kernel.
func (m *machine) Read(t epoch.Tid, x trace.Var) {
	st, sx := m.thread(t), m.variable(x)
	e := st.e
	if sx.r == e {
		m.rules[spec.ReadSameEpoch]++
		return
	}
	var own epoch.Epoch
	if sx.r.IsShared() {
		if own = sx.v.Get(t); own == e {
			m.rules[spec.ReadSharedSameEpoch]++
			return
		}
	}
	m.slowReads++
	rule, upd, race := core.StepRead(sx.r, sx.w, own, e, st.vc.View(), false)
	m.rules[rule]++
	m.addRace(race, t, x)
	switch upd {
	case core.SetR:
		sx.r = e
	case core.Share:
		sx.v = sx.v.Set(sx.r.Tid(), sx.r).Set(t, e)
		sx.r = epoch.Shared
	case core.SetOwn:
		sx.v = sx.v.Set(t, e)
	}
}

// Write handles wr(t,x) the same way.
func (m *machine) Write(t epoch.Tid, x trace.Var) {
	st, sx := m.thread(t), m.variable(x)
	e := st.e
	if sx.w == e {
		m.rules[spec.WriteSameEpoch]++
		return
	}
	m.slowWrites++
	rule, upd, race, race2 := core.StepWrite(sx.r, sx.w, e, sx.v, st.vc.View())
	m.rules[rule]++
	m.addRace(race, t, x)
	m.addRace(race2, t, x)
	if upd == core.SetW {
		sx.w = e
	}
}

// addRace sinks one piece of kernel evidence as core's report sink does:
// under a cap the surplus is counted, not recorded.
func (m *machine) addRace(ev core.Evidence, t epoch.Tid, x trace.Var) {
	if ev.Rule == spec.RuleNone {
		return
	}
	if m.maxPerVar > 0 {
		if m.perVar == nil {
			m.perVar = map[trace.Var]int{}
		}
		if m.perVar[x] >= m.maxPerVar {
			m.dropped++
			return
		}
		m.perVar[x]++
	}
	m.reports = append(m.reports, core.Report{Detector: m.Name(), Rule: ev.Rule, T: t, X: x, Prev: ev.Prev, Seq: len(m.reports)})
}

// Acquire implements [Acquire]: St.V := St.V ⊔ Sm.V.
func (m *machine) Acquire(t epoch.Tid, l trace.Lock) {
	st := m.thread(t)
	st.vc.Join(m.lock(l))
	st.e = st.vc.Get(t)
	m.rules[spec.RuleAcquire]++
}

// Release implements [Release]: Sm.V := St.V; St.V := inc_t(St.V).
func (m *machine) Release(t epoch.Tid, l trace.Lock) {
	st := m.thread(t)
	m.lock(l).Assign(st.vc)
	st.vc.Inc(t)
	st.e = st.vc.Get(t)
	m.rules[spec.RuleRelease]++
}

// Fork implements [Fork]: Su.V := Su.V ⊔ St.V; St.V := inc_t(St.V).
func (m *machine) Fork(t, u epoch.Tid) {
	m.thread(max(t, u)) // both exist before either pointer is taken
	st, su := &m.threads[t], &m.threads[u]
	su.vc.Join(st.vc)
	su.e = su.vc.Get(u)
	st.vc.Inc(t)
	st.e = st.vc.Get(t)
	m.rules[spec.RuleFork]++
}

// Join implements [Join]: St.V := Su.V ⊔ St.V, without the original
// FastTrack increment of Su.V(u) (§3).
func (m *machine) Join(t, u epoch.Tid) {
	m.thread(max(t, u))
	st, su := &m.threads[t], &m.threads[u]
	st.vc.Join(su.vc)
	st.e = st.vc.Get(t)
	m.rules[spec.RuleJoin]++
}

// Reports returns a copy of the races recorded so far, in detection order.
func (m *machine) Reports() []core.Report {
	return append([]core.Report{}, m.reports...)
}

func (m *machine) RuleCounts() [spec.NumRules]uint64 { return m.rules }

// Stats implements core.StatsSource with core.V2's key set: the shared
// assembly, then the variable table with the footprint the atomic
// representation of the same fields reports.
func (m *machine) Stats() obs.Snapshot {
	threads := make([]*vc.VC, len(m.threads))
	for i := range m.threads {
		threads[i] = m.threads[i].vc
	}
	s := core.Tally{
		Rules:     m.rules,
		SlowReads: m.slowReads, SlowWrites: m.slowWrites,
		Recorded: uint64(len(m.reports)), Dropped: m.dropped,
		Threads: threads, Locks: m.locks,
		ThreadGrows: m.threadGrows, LockGrows: m.lockGrows,
	}.Snapshot()
	shared, vecEntries := 0, 0
	for i := range m.vars {
		if m.vars[i].r.IsShared() {
			shared++
		}
		vecEntries += len(m.vars[i].v)
	}
	core.AddVarTable(s, len(m.vars), m.varGrows, shared,
		core.EpochShadowBytes(threads, m.locks, len(m.vars), vecEntries))
	return s
}

var (
	_ core.Detector    = (*machine)(nil)
	_ core.StatsSource = (*machine)(nil)
)
