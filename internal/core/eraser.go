package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/epoch"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Eraser is a lockset-based detector in the style of Savage et al. (§9): it
// verifies the locking *discipline* — every shared variable is consistently
// protected by at least one lock — rather than happens-before. It is
// included as the classical imprecise baseline: cheap per access, but it
// reports false positives on fork/join- or volatile-synchronized data (it
// has no notion of those orderings) and can miss races that the discipline
// happens to mask. The imprecision tests in this package pin down both
// failure modes.
//
// The implementation follows the original state machine:
//
//	Virgin → Exclusive(first thread) → Shared (read by another thread)
//	                                 → SharedModified (written by another)
//
// Lockset refinement starts when the variable leaves Exclusive; an empty
// lockset is reported only in SharedModified, as in the paper.
type Eraser struct {
	sink    reportSink
	threads *shadow.Table[eraserThreadState]
	vars    *shadow.Table[eraserVarState]
}

type eraserState uint8

const (
	virgin eraserState = iota
	exclusive
	sharedRO
	sharedModified
)

func (s eraserState) String() string {
	switch s {
	case virgin:
		return "virgin"
	case exclusive:
		return "exclusive"
	case sharedRO:
		return "shared"
	default:
		return "shared-modified"
	}
}

type eraserThreadState struct {
	t epoch.Tid
	// held is the set of locks currently held; confined to the owning
	// goroutine (handlers run inline in the acting thread).
	held map[trace.Lock]struct{}
	// rules approximates per-rule counts for the stats interface.
	rules [spec.NumRules]uint64
}

type eraserVarState struct {
	mu       sync.Mutex
	state    eraserState
	owner    epoch.Tid
	lockset  map[trace.Lock]struct{} // valid once state > exclusive
	reported bool                    // one report per variable, as Eraser warns once
}

// NewEraser returns an Eraser-style lockset detector.
func NewEraser(cfg Config) *Eraser {
	return &Eraser{
		// Eraser already warns once per variable via the reported flag;
		// the sink cap stays off.
		sink: reportSink{name: "eraser"},
		threads: shadow.NewTable(cfg.Threads, func(i int) *eraserThreadState {
			return &eraserThreadState{t: epoch.Tid(i), held: map[trace.Lock]struct{}{}}
		}),
		vars: shadow.NewTable(cfg.Vars, func(int) *eraserVarState {
			return &eraserVarState{state: virgin}
		}),
	}
}

// Name implements Detector.
func (d *Eraser) Name() string { return "eraser" }

// Read implements the lockset transition for a read access.
func (d *Eraser) Read(t epoch.Tid, x trace.Var) {
	d.access(t, x, false)
	d.threads.Get(int(t)).rules[spec.ReadShared]++
}

// Write implements the lockset transition for a write access.
func (d *Eraser) Write(t epoch.Tid, x trace.Var) {
	d.access(t, x, true)
	d.threads.Get(int(t)).rules[spec.WriteShared]++
}

func (d *Eraser) access(t epoch.Tid, x trace.Var, isWrite bool) {
	ts := d.threads.Get(int(t))
	sx := d.vars.Get(int(x))

	sx.mu.Lock()
	defer sx.mu.Unlock()

	switch sx.state {
	case virgin:
		sx.state = exclusive
		sx.owner = t
		return
	case exclusive:
		if sx.owner == t {
			return
		}
		// Second thread: start refining from the accessor's held set.
		sx.lockset = cloneLocks(ts.held)
		if isWrite {
			sx.state = sharedModified
		} else {
			sx.state = sharedRO
		}
	case sharedRO:
		intersectLocks(sx.lockset, ts.held)
		if isWrite {
			sx.state = sharedModified
		}
	case sharedModified:
		intersectLocks(sx.lockset, ts.held)
	}

	if sx.state == sharedModified && len(sx.lockset) == 0 && !sx.reported {
		sx.reported = true
		// The message does not repeat the variable: Report.X names it, and
		// layers that renumber variables (Sampling, parcheck's front
		// stage) translate X back but cannot translate text.
		d.sink.add(Report{
			T: t, X: x,
			Msg: fmt.Sprintf("lockset became empty in state %v", sx.state),
		})
	}
}

// Acquire records the lock into the thread's held set.
func (d *Eraser) Acquire(t epoch.Tid, m trace.Lock) {
	ts := d.threads.Get(int(t))
	ts.held[m] = struct{}{}
	ts.rules[spec.RuleAcquire]++
}

// Release removes the lock from the thread's held set.
func (d *Eraser) Release(t epoch.Tid, m trace.Lock) {
	ts := d.threads.Get(int(t))
	delete(ts.held, m)
	ts.rules[spec.RuleRelease]++
}

// Fork is a no-op: Eraser does not understand fork/join ordering, which is
// precisely the source of its false positives on fork/join programs.
func (d *Eraser) Fork(t, u epoch.Tid) {
	d.threads.Get(int(t)).rules[spec.RuleFork]++
}

// Join is a no-op, as Fork.
func (d *Eraser) Join(t, u epoch.Tid) {
	d.threads.Get(int(t)).rules[spec.RuleJoin]++
}

// Reports implements Detector.
func (d *Eraser) Reports() []Report { return d.sink.snapshot() }

// RuleCounts implements Detector; Eraser's "rules" are coarse access and
// synchronization counters rather than Fig. 2 rules.
func (d *Eraser) RuleCounts() [spec.NumRules]uint64 {
	var out [spec.NumRules]uint64
	for _, ts := range d.threads.Snapshot() {
		for i, n := range ts.rules {
			out[i] += n
		}
	}
	return out
}

// LocksetOf exposes a variable's current lockset for tests; the result is
// sorted and detached.
func (d *Eraser) LocksetOf(x trace.Var) []trace.Lock {
	sx := d.vars.Get(int(x))
	sx.mu.Lock()
	defer sx.mu.Unlock()
	out := make([]trace.Lock, 0, len(sx.lockset))
	for m := range sx.lockset {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StateOf exposes a variable's Eraser state for tests.
func (d *Eraser) StateOf(x trace.Var) string {
	sx := d.vars.Get(int(x))
	sx.mu.Lock()
	defer sx.mu.Unlock()
	return sx.state.String()
}

func cloneLocks(src map[trace.Lock]struct{}) map[trace.Lock]struct{} {
	out := make(map[trace.Lock]struct{}, len(src))
	for m := range src {
		out[m] = struct{}{}
	}
	return out
}

func intersectLocks(dst, other map[trace.Lock]struct{}) {
	for m := range dst {
		if _, ok := other[m]; !ok {
			delete(dst, m)
		}
	}
}
