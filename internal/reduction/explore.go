//go:build vftmc

package reduction

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/vc"
)

// This file is the interleaving explorer. Built with the vftmc tag, every
// shared action of a core VarState calls core.MCHook first; the explorer
// installs a hook that hands the turn to internal/sched, so the real
// Read and Write handlers of v1, v1.5, v2 and FT-Mutex run one action at
// a time in an order the explorer chooses. A depth-first search over
// those choices, pruned on a key of the variable's state and each
// thread's position and observations, visits every interleaving of two
// or three accesses to one variable.

// Scenario is one exploration: thread i writes variable 0 if Writes[i],
// else reads it, holding clock Clocks[i]; the variable starts as Var.
type Scenario struct {
	Name   string
	Var    core.MCVar
	Writes []bool
	Clocks [][]epoch.Epoch
}

// Result is what exploring one scenario found.
type Result struct {
	// States counts the distinct states the search visited.
	States int
	// Rules lists the rules the threads' accesses fired, over every
	// terminal outcome.
	Rules map[spec.Rule]bool
	// Paths holds each distinct action sequence a thread took, labelled
	// by the Classify functions from the lock ownership and variable
	// state recorded when the action ran.
	Paths []Path
}

// Explore runs every interleaving of sc's accesses through variant's real
// handlers and checks that each terminal outcome — every thread's rule
// and the final R, W and V — is the outcome of some serial order. It
// fails too if a recorded action breaks the §5 discipline the Classify
// functions encode.
func Explore(variant string, sc Scenario) (Result, error) {
	n := len(sc.Writes)
	serial := map[string]bool{}
	for _, order := range permutations(n) {
		run, err := runSerial(variant, sc, order)
		if err != nil {
			return Result{}, err
		}
		serial[outcome(run, n)] = true
	}

	x := &explorer{variant: variant, sc: sc, visited: map[string]bool{}, paths: map[string]Path{}}
	res := Result{Rules: map[spec.Rule]bool{}}
	core.MCHook = x.hook
	defer func() { core.MCHook = nil }()
	for prefix, more := []int(nil), true; more; {
		if err := x.run(prefix); err != nil {
			return res, err
		}
		if sig := outcome(x.mc, n); !serial[sig] {
			return res, fmt.Errorf("%s %s: non-serializable outcome after schedule %v:\n  got    %s\n  serial %v",
				variant, sc.Name, x.pol.Picks, sig, keys(serial))
		}
		for i := 0; i < n; i++ {
			res.Rules[x.mc.Rule(epoch.Tid(i))] = true
		}
		limit := len(x.pol.Picks)
		if x.cutoff >= 0 {
			limit = x.cutoff
		}
		prefix, more = x.pol.Next(limit)
	}
	res.States = len(x.visited)
	for _, p := range x.paths {
		res.Paths = append(res.Paths, p)
	}
	return res, x.err
}

// explorer drives one scenario's runs. Its fields are touched only by the
// goroutine holding the scheduler's turn, or by Explore between runs.
type explorer struct {
	variant string
	sc      Scenario
	mc      *core.MCRun
	s       *sched.Scheduler
	pol     *sched.Exhaustive
	th      []mcThread
	cur     int // the thread holding the turn
	owner   int // the thread holding the variable's lock, or -1
	cutoff  int // the first step taken in an already-visited state, or -1
	visited map[string]bool
	paths   map[string]Path
	err     error // the first discipline violation
}

// mcThread is one thread's progress through its handler.
type mcThread struct {
	started bool
	pending core.MCAction   // the action the thread waits to take
	entry   epoch.Tid       // the vector entry of a pending entry action
	steps   []step          // the actions taken
	seen    []byte          // what each load observed, encoded
	held    *kernel.ReadVec // the vector pointer the thread last loaded
}

// step is one action taken, with what its mover label depends on.
type step struct {
	a      core.MCAction
	locked bool // the thread held the variable's lock
	shared bool // R was Shared
	own    bool // an entry action on the thread's own entry
}

// run executes one schedule: prefix, then the first enabled thread.
func (x *explorer) run(prefix []int) error {
	mc, err := core.NewMCRun(x.variant, x.sc.Clocks, x.sc.Var)
	if err != nil {
		return err
	}
	n := len(x.sc.Writes)
	x.mc, x.pol, x.s = mc, &sched.Exhaustive{Prefix: prefix}, sched.New(x)
	x.th, x.owner, x.cutoff = make([]mcThread, n), -1, -1
	x.s.RegisterMain(n)
	for i := 0; i < n; i++ {
		x.s.Fork(n, i)
		go func() {
			defer x.s.Exit(i)
			x.s.Started(i)
			x.mc.Access(epoch.Tid(i), x.sc.Writes[i])
		}()
	}
	x.s.Exit(n)
	x.s.Wait()
	for i := range x.th {
		x.addPath(i)
	}
	return nil
}

// hook is core.MCHook: a scheduling point before the running thread's
// next shared action, and the scheduler-side half of the lock actions.
func (x *explorer) hook(a core.MCAction, t epoch.Tid) {
	i := x.cur
	x.th[i].pending, x.th[i].entry = a, t
	x.s.Yield(i)
	switch a {
	case core.MCLock:
		x.s.AcquireLock(i, 0)
	case core.MCUnlock:
		x.s.ReleaseLock(i, 0)
	}
}

// Name implements sched.Policy.
func (x *explorer) Name() string { return "reduction" }

// Register implements sched.Policy.
func (x *explorer) Register(int) {}

// Pick implements sched.Policy. A thread that has not started runs first,
// to its first shared action, without a choice being recorded. Otherwise
// the choice is among the threads whose pending action can run — not a
// lock the variable's owner holds — and the state it is made in is
// checked against the states already visited.
func (x *explorer) Pick(n uint64, runnable []int) int {
	for _, i := range runnable {
		if !x.th[i].started {
			x.th[i].started, x.cur = true, i
			return i
		}
	}
	var enabled []int
	for _, i := range runnable {
		if x.th[i].pending != core.MCLock || x.owner < 0 {
			enabled = append(enabled, i)
		}
	}
	if len(enabled) == 0 {
		enabled = runnable // a deadlock: the scheduler reports it
	}
	if k := len(x.pol.Picks); k >= len(x.pol.Prefix) && x.cutoff < 0 {
		key := x.key()
		if x.visited[key] {
			x.cutoff = k
		}
		x.visited[key] = true
	}
	i := x.pol.Pick(n, enabled)
	x.grant(i)
	x.cur = i
	return i
}

// grant records thread i's pending action as it is about to run: the
// value a load will observe, read off the variable now, and the context
// its mover label depends on.
func (x *explorer) grant(i int) {
	th := &x.th[i]
	v := x.mc.Var()
	st := step{a: th.pending, locked: x.owner == i, shared: v.R.IsShared(), own: th.entry == epoch.Tid(i)}
	switch th.pending {
	case core.MCLoadR:
		th.seen = appendEpoch(th.seen, v.R)
	case core.MCLoadW:
		th.seen = appendEpoch(th.seen, v.W)
	case core.MCLoadV:
		th.held = v.V
		th.seen = appendVec(th.seen, v.V)
	case core.MCReadEntry:
		th.seen = appendEpoch(th.seen, (*th.held)[th.entry])
	case core.MCReadVec:
		st.own = false
		th.seen = appendVec(th.seen, th.held)
	case core.MCLock:
		// The v1 handler reads its plain fields only under the lock, so
		// the whole variable is what its lock observes.
		x.owner = i
		th.seen = appendVec(appendEpoch(appendEpoch(th.seen, v.R), v.W), v.V)
	case core.MCUnlock:
		x.owner = -1
	}
	th.steps = append(th.steps, st)
}

// key identifies the state a choice is made in: the variable (R, W, V and
// the lock's owner) and, per thread, how many actions it has taken, what
// its loads observed, and the contents of a vector pointer it holds that
// is no longer the published one. The handlers are deterministic, so two
// paths reaching one key continue alike.
func (x *explorer) key() string {
	v := x.mc.Var()
	b := appendVec(appendEpoch(appendEpoch(nil, v.R), v.W), v.V)
	b = append(b, byte(x.owner+1))
	for i := range x.th {
		th := &x.th[i]
		b = append(b, '|', byte(len(th.steps)))
		b = append(b, th.seen...)
		if th.held != nil && th.held != v.V {
			b = appendVec(b, th.held)
		}
	}
	return string(b)
}

func appendEpoch(b []byte, e epoch.Epoch) []byte {
	return binary.LittleEndian.AppendUint64(append(b, 'e'), uint64(e))
}

func appendVec(b []byte, v *kernel.ReadVec) []byte {
	if v == nil {
		return append(b, 'n')
	}
	b = append(b, 'v', byte(len(*v)))
	for _, e := range *v {
		b = binary.LittleEndian.AppendUint64(b, uint64(e))
	}
	return b
}

// addPath labels thread i's action sequence of the finished run and keeps
// it if it is new.
func (x *explorer) addPath(i int) {
	handler := "read"
	if x.sc.Writes[i] {
		handler = "write"
	}
	rule := x.mc.Rule(epoch.Tid(i))
	id := fmt.Sprint(handler, rule, x.th[i].steps)
	if _, ok := x.paths[id]; ok {
		return
	}
	p, err := label(handler, x.variant+" "+rule.String(), x.th[i].steps)
	if err != nil && x.err == nil {
		x.err = err
	}
	x.paths[id] = p
}

var actionNames = [...]string{
	core.MCLoadR:      "load sx.R",
	core.MCLoadW:      "load sx.W",
	core.MCLoadV:      "load sx.V pointer",
	core.MCReadEntry:  "read sx.V[i]",
	core.MCReadVec:    "read every sx.V entry",
	core.MCWriteEntry: "write sx.V[i]",
	core.MCStoreR:     "store sx.R",
	core.MCStoreW:     "store sx.W",
	core.MCStoreV:     "store sx.V pointer",
	core.MCLock:       "acquire sx",
	core.MCUnlock:     "release sx",
}

// label turns recorded steps into a Path. The actions before the first
// lock acquisition form the pure block; a handler that never locks
// returns inside it. A step the discipline forbids is an error.
func label(handler, name string, steps []step) (p Path, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s/%s: %v", handler, name, r)
		}
	}()
	p = Path{Handler: handler, Name: name}
	pure := true
	for _, s := range steps {
		if s.a == core.MCLock {
			pure = false
		}
		desc := actionNames[s.a]
		if s.locked {
			desc += " (locked)"
		}
		p.Actions = append(p.Actions, Action{Mover: s.mover(), Pure: pure, Desc: desc})
	}
	p.ReturnsInPure = pure
	return p, nil
}

// mover classifies a recorded step with the §5 discipline.
func (s step) mover() Mover {
	switch s.a {
	case core.MCLoadR:
		return ClassifyR(false, s.locked, s.shared)
	case core.MCStoreR:
		return ClassifyR(true, s.locked, false)
	case core.MCLoadW:
		return ClassifyW(false, s.locked)
	case core.MCStoreW:
		return ClassifyW(true, s.locked)
	case core.MCLoadV:
		return ClassifyVPointer(false, s.locked, s.shared)
	case core.MCStoreV:
		return ClassifyVPointer(true, s.locked, s.shared)
	case core.MCReadEntry, core.MCReadVec:
		return ClassifyVEntry(false, s.locked, s.shared, s.own)
	case core.MCWriteEntry:
		return ClassifyVEntry(true, s.locked, s.shared, s.own)
	default:
		return ClassifyLock(s.a == core.MCLock)
	}
}

// runSerial runs sc's accesses one after another in the given order.
func runSerial(variant string, sc Scenario, order []int) (*core.MCRun, error) {
	mc, err := core.NewMCRun(variant, sc.Clocks, sc.Var)
	if err != nil {
		return nil, err
	}
	for _, i := range order {
		mc.Access(epoch.Tid(i), sc.Writes[i])
	}
	return mc, nil
}

// outcome renders a finished run: the variable's R, W and first three
// vector entries, and each of the n threads' rules.
func outcome(mc *core.MCRun, n int) string {
	v := mc.Var()
	var vec kernel.ReadVec
	if v.V != nil {
		vec = *v.V
	}
	s := fmt.Sprintf("R=%v W=%v V=[%v %v %v]", v.R, v.W, vec.Get(0), vec.Get(1), vec.Get(2))
	for i := 0; i < n; i++ {
		s += fmt.Sprintf(" t%d:%v", i, mc.Rule(epoch.Tid(i)))
	}
	return s
}

// CheckSpec runs every serial order of sc through variant and compares
// each thread's rule and the final variable state with the Fig. 2
// specification. Comparison stops at the first racy access: the
// specification halts there, while the handlers repair and continue (§7).
func CheckSpec(variant string, sc Scenario) error {
	n := len(sc.Writes)
orders:
	for _, order := range permutations(n) {
		mc, err := runSerial(variant, sc, order)
		if err != nil {
			return err
		}
		st := spec.NewState(spec.VerifiedFT)
		for i, c := range sc.Clocks {
			for t, e := range c {
				st.Thread(epoch.Tid(i)).Set(epoch.Tid(t), e)
			}
		}
		sx := st.Var(0)
		sx.R, sx.W = sc.Var.R, sc.Var.W
		if sc.Var.V != nil {
			sx.V = vc.FromSnapshot(append([]epoch.Epoch(nil), *sc.Var.V...))
		}
		for _, i := range order {
			op := trace.Rd(epoch.Tid(i), 0)
			if sc.Writes[i] {
				op = trace.Wr(epoch.Tid(i), 0)
			}
			want, race := st.Step(op)
			if got := mc.Rule(epoch.Tid(i)); got != want {
				return fmt.Errorf("%s %s (order %v): thread %d rule: impl %v, spec %v",
					variant, sc.Name, order, i, got, want)
			}
			if race != nil {
				continue orders
			}
		}
		v := mc.Var()
		same := v.R == sx.R && v.W == sx.W
		for t := epoch.Tid(0); same && v.R.IsShared() && int(t) < n; t++ {
			same = (*v.V).Get(t) == sx.V.Get(t)
		}
		if !same {
			return fmt.Errorf("%s %s (order %v): impl %s; spec R=%v W=%v V=%v",
				variant, sc.Name, order, outcome(mc, n), sx.R, sx.W, sx.V)
		}
	}
	return nil
}

// permutations enumerates the serial orders of n threads.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
