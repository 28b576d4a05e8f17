package parcheck

import (
	"slices"

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
	threadGrows, lockGrows, varGrows uint64 // reallocations past the hints and the recycled capacity
}

// threadState is St: the thread's clock and its cached epoch E_t, which
// only the four sync handlers change.
type threadState struct {
	e  epoch.Epoch
	vc *vc.VC
}

// varState is Sx by value. The zero value is the initial state, r = w =
// 0@0 and no read vector (or an empty one), as core's detectors initialize.
type varState struct {
	r, w epoch.Epoch
	v    core.ReadVec // filled by the Share transition
}

// reset empties the machine for a check under cfg: it truncates the tables,
// keeping the clocks and read vectors past their length for the entries the
// check names. The hints reserve capacity and nothing else.
func (m *machine) reset(cfg core.Config) {
	*m = machine{
		threads:   slices.Grow(m.threads[:0], cfg.Threads),
		locks:     slices.Grow(m.locks[:0], cfg.Locks),
		vars:      slices.Grow(m.vars[:0], cfg.Vars),
		reports:   m.reports[:0],
		maxPerVar: cfg.MaxReportsPerVar,
	}
}

// extend lengthens s to n entries, counting a reallocation in grows; the
// entries it exposes hold what an earlier check left, for the caller to renew.
func extend[E any](s []E, n int, grows *uint64) []E {
	if n > cap(s) {
		*grows++
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// recycle returns c emptied to ⊥V, with zeroed Metrics and its array kept,
// or a new clock where there is none to recycle.
func recycle(c *vc.VC) *vc.VC {
	if c == nil {
		return vc.New()
	}
	*c = *vc.FromSnapshot(c.View()[:0])
	return c
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
	old := len(m.threads)
	m.threads = extend(m.threads, n, &m.threadGrows)
	for t := old; t < n; t++ {
		c := recycle(m.threads[t].vc)
		c.Inc(epoch.Tid(t))
		m.threads[t] = threadState{e: c.Get(epoch.Tid(t)), vc: c}
	}
}

func (m *machine) lock(l trace.Lock) *vc.VC {
	if int(l) >= len(m.locks) {
		m.growLocks(int(l) + 1)
	}
	return m.locks[l]
}

func (m *machine) growLocks(n int) {
	old := len(m.locks)
	m.locks = extend(m.locks, n, &m.lockGrows)
	for i := old; i < n; i++ {
		m.locks[i] = recycle(m.locks[i])
	}
}

// variable returns Sx, valid until the next call of variable.
func (m *machine) variable(x trace.Var) *varState {
	if int(x) >= len(m.vars) {
		m.growVars(int(x) + 1)
	}
	return &m.vars[x]
}

func (m *machine) growVars(n int) {
	old := len(m.vars)
	m.vars = extend(m.vars, n, &m.varGrows)
	for i := old; i < n; i++ {
		m.vars[i] = varState{v: m.vars[i].v[:0]}
	}
}

// setVec is ReadVec.Set, except that growth first extends into the
// vector's spare capacity, which a variable slot keeps from an earlier
// check. The new length is Set's either way, so shadow.bytes does not
// depend on the slot's history.
func setVec(v core.ReadVec, t epoch.Tid, e epoch.Epoch) core.ReadVec {
	if n := max(2*len(v), int(t)+1); int(t) >= len(v) && n <= cap(v) {
		old := len(v)
		v = v[:n]
		epoch.FillMin(v, 0, old)
	}
	return v.Set(t, e)
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
		sx.v = setVec(setVec(sx.v, sx.r.Tid(), sx.r), t, e)
		sx.r = epoch.Shared
	case core.SetOwn:
		sx.v = setVec(sx.v, t, e)
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
