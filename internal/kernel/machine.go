// Package kernel is the VerifiedFT-v2 analysis as a leaf: the Fig. 2
// access-rule kernel (StepRead, StepWrite), the single-caller v2 machine
// built on it (Machine), the one switch that validates, lowers and steps
// a raw operation (Feed), and the offline check's front stage (Front). It imports only internal/epoch, vc, spec
// and trace, so it also travels, as source, into every shadow module
// vft-go builds: the instrumented program's shim steps each record it
// logs through a Feed and a Machine, under the lock it already holds.
// internal/core runs the same kernel under its concurrent disciplines,
// and internal/parcheck runs the same Feed, through a Front, and Machine
// offline.
package kernel

import (
	"fmt"
	"slices"

	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Report describes one detected race.
type Report struct {
	Detector string
	Rule     spec.Rule
	T        epoch.Tid   // the thread whose access completed the race
	X        trace.Var   // the variable raced on
	Prev     epoch.Epoch // evidence: the unordered prior-access epoch
	Seq      int         // detection order within this detector (0-based)
}

func (r Report) String() string {
	return fmt.Sprintf("[%s] race #%d on x%d by thread %d: [%v] prior access %v",
		r.Detector, r.Seq, r.X, r.T, r.Rule, r.Prev)
}

// Machine is VerifiedFT-v2 for one caller: the state core.V2 keeps — a
// clock and cached epoch per thread, a release clock per lock, R, W and
// the read vector per variable — in plain slices indexed by dense ids,
// with none of what makes core.V2 safe to call from many threads at once
// (atomic fields, the per-variable mutex, tables that publish their
// growth). Its caller serializes every call: the offline check has one
// goroutine, and the vft-go shim calls it under its one mutex, in the
// order the records enter the capture. EXPERIMENTS.md E27 has what the
// dropped discipline cost.
//
// It is not a second transcription of the analysis. An access is v2's
// pure block (the same-epoch tests of Fig. 4) followed by the Fig. 2
// kernel every core variant calls, StepRead/StepWrite; the four sync
// handlers are core's syncBase bodies on the same vc.Join/Assign/Inc.
// core.V2 stays the reference: internal/parcheck's
// TestOfflineCheckIsBareReplay, TestMachineStatsKeysMatchV2 and
// FuzzParallelEquivalence hold reports and counters to a bare
// core.New("vft-v2") replay. The zero value is an empty machine.
type Machine struct {
	threads []threadState
	locks   []*vc.VC // Sm.V, the clock of the lock's last release
	vars    []varState

	maxPerVar int               // report cap per variable, 0 = none
	perVar    map[trace.Var]int // reports admitted so far, kept only under a cap
	reports   []Report
	dropped   uint64

	// One caller, so one tally rather than one per thread.
	rules                 [spec.NumRules]uint64
	slowReads, slowWrites uint64
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
	v    ReadVec // filled by the Share transition
}

// Reset empties the machine for a run that caps reports per variable at
// maxPerVar (0 = none): it truncates the tables, keeping the clocks and
// read vectors past their length for the entries the run names.
func (m *Machine) Reset(maxPerVar int) {
	*m = Machine{
		threads:   m.threads[:0],
		locks:     m.locks[:0],
		vars:      m.vars[:0],
		reports:   m.reports[:0],
		maxPerVar: maxPerVar,
	}
}

// extend lengthens s to n entries; the entries it exposes hold what an
// earlier run left, for the caller to renew.
func extend[E any](s []E, n int) []E {
	return slices.Grow(s, n-len(s))[:n]
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

// Name identifies the analysis the machine runs, as core's detectors do.
func (m *Machine) Name() string { return "vft-v2" }

// thread returns St, valid until the next call of thread.
func (m *Machine) thread(t epoch.Tid) *threadState {
	if int(t) >= len(m.threads) {
		m.growThreads(int(t) + 1)
	}
	return &m.threads[t]
}

// growThreads extends the table to n threads, each starting at t@1.
func (m *Machine) growThreads(n int) {
	old := len(m.threads)
	m.threads = extend(m.threads, n)
	for t := old; t < n; t++ {
		c := recycle(m.threads[t].vc)
		c.Inc(epoch.Tid(t))
		m.threads[t] = threadState{e: c.Get(epoch.Tid(t)), vc: c}
	}
}

func (m *Machine) lock(l trace.Lock) *vc.VC {
	if int(l) >= len(m.locks) {
		m.growLocks(int(l) + 1)
	}
	return m.locks[l]
}

func (m *Machine) growLocks(n int) {
	old := len(m.locks)
	m.locks = extend(m.locks, n)
	for i := old; i < n; i++ {
		m.locks[i] = recycle(m.locks[i])
	}
}

// variable returns Sx, valid until the next call of variable.
func (m *Machine) variable(x trace.Var) *varState {
	if int(x) >= len(m.vars) {
		m.growVars(int(x) + 1)
	}
	return &m.vars[x]
}

func (m *Machine) growVars(n int) {
	old := len(m.vars)
	m.vars = extend(m.vars, n)
	for i := old; i < n; i++ {
		m.vars[i] = varState{v: m.vars[i].v[:0]}
	}
}

// setVec is ReadVec.Set, except that growth first extends into the
// vector's spare capacity, which a variable slot keeps from an earlier
// run. The new length is Set's either way, so shadow.bytes does not
// depend on the slot's history.
func setVec(v ReadVec, t epoch.Tid, e epoch.Epoch) ReadVec {
	if n := max(2*len(v), int(t)+1); int(t) >= len(v) && n <= cap(v) {
		old := len(v)
		v = v[:n]
		epoch.FillMin(v, 0, old)
	}
	return v.Set(t, e)
}

// Read handles rd(t,x): Fig. 4's pure block, then the kernel.
func (m *Machine) Read(t epoch.Tid, x trace.Var) {
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
	rule, upd, race := StepRead(sx.r, sx.w, own, e, st.vc.View(), false)
	m.rules[rule]++
	m.addRace(race, t, x)
	switch upd {
	case SetR:
		sx.r = e
	case Share:
		sx.v = setVec(setVec(sx.v, sx.r.Tid(), sx.r), t, e)
		sx.r = epoch.Shared
	case SetOwn:
		sx.v = setVec(sx.v, t, e)
	}
}

// Write handles wr(t,x) the same way.
func (m *Machine) Write(t epoch.Tid, x trace.Var) {
	st, sx := m.thread(t), m.variable(x)
	e := st.e
	if sx.w == e {
		m.rules[spec.WriteSameEpoch]++
		return
	}
	m.slowWrites++
	rule, upd, race, race2 := StepWrite(sx.r, sx.w, e, sx.v, st.vc.View())
	m.rules[rule]++
	m.addRace(race, t, x)
	m.addRace(race2, t, x)
	if upd == SetW {
		sx.w = e
	}
}

// addRace sinks one piece of kernel evidence as core's report sink does:
// under a cap the surplus is counted, not recorded.
func (m *Machine) addRace(ev Evidence, t epoch.Tid, x trace.Var) {
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
	m.reports = append(m.reports, Report{Detector: m.Name(), Rule: ev.Rule, T: t, X: x, Prev: ev.Prev, Seq: len(m.reports)})
}

// Acquire implements [Acquire]: St.V := St.V ⊔ Sm.V.
func (m *Machine) Acquire(t epoch.Tid, l trace.Lock) {
	st := m.thread(t)
	st.vc.Join(m.lock(l))
	st.e = st.vc.Get(t)
	m.rules[spec.RuleAcquire]++
}

// Release implements [Release]: Sm.V := St.V; St.V := inc_t(St.V).
func (m *Machine) Release(t epoch.Tid, l trace.Lock) {
	st := m.thread(t)
	m.lock(l).Assign(st.vc)
	st.vc.Inc(t)
	st.e = st.vc.Get(t)
	m.rules[spec.RuleRelease]++
}

// Fork implements [Fork]: Su.V := Su.V ⊔ St.V; St.V := inc_t(St.V).
func (m *Machine) Fork(t, u epoch.Tid) {
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
func (m *Machine) Join(t, u epoch.Tid) {
	m.thread(max(t, u))
	st, su := &m.threads[t], &m.threads[u]
	st.vc.Join(su.vc)
	st.e = st.vc.Get(t)
	m.rules[spec.RuleJoin]++
}

// Reports returns a copy of the races recorded so far, in detection order.
func (m *Machine) Reports() []Report {
	return append([]Report{}, m.reports...)
}

// RuleCounts returns how many times each rule fired.
func (m *Machine) RuleCounts() [spec.NumRules]uint64 { return m.rules }

// Tally is what a statistics snapshot of the machine is assembled from:
// the offline check assembles it under core.V2's key set, which takes
// core and obs, neither of which the kernel may import.
type Tally struct {
	SlowReads, SlowWrites uint64
	Dropped               uint64   // reports the per-variable cap suppressed
	Threads, Locks        []*vc.VC // the thread and lock clocks
	Vars, Shared          int      // variable slots, and how many are read-shared
	VecEntries            int      // read-vector entries over all variables
}

// Tally returns the machine's counters and table sizes.
func (m *Machine) Tally() Tally {
	t := Tally{
		SlowReads: m.slowReads, SlowWrites: m.slowWrites, Dropped: m.dropped,
		Threads: make([]*vc.VC, len(m.threads)), Locks: m.locks, Vars: len(m.vars),
	}
	for i := range m.threads {
		t.Threads[i] = m.threads[i].vc
	}
	for i := range m.vars {
		if m.vars[i].r.IsShared() {
			t.Shared++
		}
		t.VecEntries += len(m.vars[i].v)
	}
	return t
}
