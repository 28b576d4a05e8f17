package core

import (
	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
)

// PosTracker wraps a detector and tracks the global event position (0-based
// index in the serialized event stream) at which the wrapped detector
// produced its first report. It is the live counterpart of
// FirstReportPosition: the offline function replays a stored trace, while a
// PosTracker rides along an execution whose events are already serialized —
// a Replay loop or a controlled-scheduler run (internal/rtsim with
// internal/sched) — and exposes the same position uniformly for every
// detector variant, which is what the conformance suite compares against
// the happens-before oracle's FirstRaceAt.
//
// A PosTracker is NOT safe for free-running concurrent use: its counters
// are plain fields, valid only when events arrive one at a time (under a
// controlled scheduler the turn hand-off provides the required ordering).
type PosTracker struct {
	d       Detector
	n       int
	firstAt int
}

// NewPosTracker wraps d; the tracker starts with no events seen.
func NewPosTracker(d Detector) *PosTracker {
	return &PosTracker{d: d, firstAt: -1}
}

// FirstReportPos returns the event index at which the wrapped detector
// first reported, or -1 if it has not.
func (p *PosTracker) FirstReportPos() int { return p.firstAt }

// Events returns how many events have been dispatched through the tracker.
func (p *PosTracker) Events() int { return p.n }

// after records the position if the wrapped detector just produced its
// first report, then advances the event counter.
func (p *PosTracker) after() {
	if p.firstAt == -1 && len(p.d.Reports()) > 0 {
		p.firstAt = p.n
	}
	p.n++
}

// Name implements Detector.
func (p *PosTracker) Name() string { return p.d.Name() }

// Read implements Detector.
func (p *PosTracker) Read(t epoch.Tid, x trace.Var) { p.d.Read(t, x); p.after() }

// Write implements Detector.
func (p *PosTracker) Write(t epoch.Tid, x trace.Var) { p.d.Write(t, x); p.after() }

// Acquire implements Detector.
func (p *PosTracker) Acquire(t epoch.Tid, m trace.Lock) { p.d.Acquire(t, m); p.after() }

// Release implements Detector.
func (p *PosTracker) Release(t epoch.Tid, m trace.Lock) { p.d.Release(t, m); p.after() }

// Fork implements Detector.
func (p *PosTracker) Fork(t, u epoch.Tid) { p.d.Fork(t, u); p.after() }

// Join implements Detector.
func (p *PosTracker) Join(t, u epoch.Tid) { p.d.Join(t, u); p.after() }

// Reports implements Detector.
func (p *PosTracker) Reports() []Report { return p.d.Reports() }

// RuleCounts implements Detector.
func (p *PosTracker) RuleCounts() [spec.NumRules]uint64 { return p.d.RuleCounts() }
