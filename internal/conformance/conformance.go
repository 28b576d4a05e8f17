// Package conformance is the executable counterpart of the paper's proof
// for the code this repository actually runs: a replayable cross-detector
// conformance suite over *controlled* schedules.
//
// The CIVL proof certifies the idealized v2 algorithm; the concrete Go
// ports (v1, v1.5, v2, FT-Mutex, FT-CAS) were previously guarded only by
// stress tests under whatever interleavings the Go runtime produced. Here,
// each target program — a re-executed generated trace, a built-in example
// kernel, or a benchmark workload — runs under internal/sched's cooperative
// scheduler, which serializes the simulated threads and drives them with a
// seed-deterministic policy (PCT or random walk). Every explored schedule
// yields an exact event linearization (via core.Recorder), and for that
// linearization the suite cross-checks every detector's verdict and
// first-report position against the happens-before oracle of internal/hb.
// Any divergence is delta-minimized into the vft-race text format and
// carries the seed that replays its schedule bit-for-bit.
package conformance

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/hb"
	"repro/internal/rtsim"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Program is one schedulable target: Run drives rt's main thread and
// returns when the program's own structure is complete (forked threads it
// does not join are drained by the controlled runtime's Shutdown).
type Program struct {
	Name string
	Run  func(rt *rtsim.Runtime)
}

// FromTrace reinterprets a feasible core-language trace as a concurrent
// program: each thread of tr becomes a simulated thread executing its
// projection of the trace in program order, with forks, joins, locks and
// accesses mapped onto the runtime simulator. Scheduling it then explores
// *other* feasible interleavings of the same per-thread programs — the
// original trace is the policy-independent witness that at least one
// schedule exists. Join targets forked by a different thread are passed
// through rtsim.Handle, which blocks in the scheduler without adding any
// happens-before edge to the analyzed trace.
//
// FromTrace materializes the trace into per-thread projections up front
// rather than streaming it to the threads through bounded channels. That
// is deliberate: under a controlled scheduler only the turn-holding thread
// runs, and it may be one whose channel a demultiplexer has yet to fill
// while the demultiplexer is blocked sending to a thread that cannot take
// its turn — bounded backpressure and cooperative turn handoff deadlock —
// so controlled exploration pays the O(trace) memory for schedule freedom.
func FromTrace(name string, tr trace.Trace) (Program, error) {
	perThread := map[epoch.Tid][]trace.Op{}
	nVars, nLocks := 0, 0
	for _, op := range tr {
		if !op.Kind.IsCore() {
			return Program{}, fmt.Errorf("conformance: FromTrace on extended op %v (Desugar first)", op)
		}
		perThread[op.T] = append(perThread[op.T], op)
		if op.IsAccess() && int(op.X)+1 > nVars {
			nVars = int(op.X) + 1
		}
		if (op.Kind == trace.Acquire || op.Kind == trace.Release) && int(op.M)+1 > nLocks {
			nLocks = int(op.M) + 1
		}
	}
	run := func(rt *rtsim.Runtime) {
		vars := make([]*rtsim.Var, nVars)
		for i := range vars {
			vars[i] = rt.NewVar()
		}
		locks := make([]*rtsim.Mutex, nLocks)
		for i := range locks {
			locks[i] = rt.NewMutex()
		}
		// One handle per forked trace thread: the forker publishes the
		// child's rtsim identity, joiners (who may be any thread) fetch
		// it. The mutex only guards the map structure against the race
		// detector; under control the turn already serializes access.
		var mu sync.Mutex
		handles := map[epoch.Tid]*rtsim.Handle{}
		for _, op := range tr {
			if op.Kind == trace.Fork {
				handles[op.U] = rt.NewHandle()
			}
		}
		var exec func(self *rtsim.Thread, ops []trace.Op)
		exec = func(self *rtsim.Thread, ops []trace.Op) {
			for _, op := range ops {
				switch op.Kind {
				case trace.Read:
					vars[op.X].Load(self)
				case trace.Write:
					vars[op.X].Store(self, int64(op.T)+1)
				case trace.Acquire:
					locks[op.M].Lock(self)
				case trace.Release:
					locks[op.M].Unlock(self)
				case trace.Fork:
					u := op.U
					child := self.Go(func(w *rtsim.Thread) { exec(w, perThread[u]) })
					mu.Lock()
					h := handles[u]
					mu.Unlock()
					h.Set(child)
				case trace.Join:
					mu.Lock()
					h := handles[op.U]
					mu.Unlock()
					self.Join(h.Get(self))
				}
			}
		}
		exec(rt.Main(), perThread[0])
	}
	return Program{Name: name, Run: run}, nil
}

// DetectorOutcome is one detector's verdict on one explored schedule.
type DetectorOutcome struct {
	Name string
	// FirstReportAt is the event index (into the recorded linearization)
	// of the detector's first report, -1 if it reported nothing.
	FirstReportAt int
	// Reports is the total number of reports the detector produced.
	Reports int
}

// RunOne executes prog once under a controlled schedule fully determined by
// (policy, seed) and returns the recorded event linearization plus each
// named detector's outcome on exactly that linearization. All detectors
// observe the identical schedule: they ride one rtsim run behind a Tee.
func RunOne(prog Program, policy string, seed uint64, detectors []string) (trace.Trace, []DetectorOutcome, error) {
	pol, err := sched.NewPolicy(policy, seed)
	if err != nil {
		return nil, nil, err
	}
	rec := core.NewRecorder()
	ds := []core.Detector{rec}
	trackers := make([]*core.PosTracker, 0, len(detectors))
	for _, name := range detectors {
		d, err := core.New(name, core.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		pt := core.NewPosTracker(d)
		trackers = append(trackers, pt)
		ds = append(ds, pt)
	}
	rt := rtsim.NewControlled(core.NewTee(ds...), sched.New(pol))
	prog.Run(rt)
	rt.Shutdown()

	tr := rec.Trace()
	outs := make([]DetectorOutcome, len(trackers))
	for i, pt := range trackers {
		outs[i] = DetectorOutcome{
			Name:          detectors[i],
			FirstReportAt: pt.FirstReportPos(),
			Reports:       len(pt.Reports()),
		}
	}
	return tr, outs, nil
}

// Options configures an exploration.
type Options struct {
	// Policy is "pct" or "random".
	Policy string
	// Schedules is how many schedules to explore.
	Schedules int
	// SeedBase derives the per-schedule seeds: schedule j runs under
	// ScheduleSeed(SeedBase, j), so any printed seed replays standalone.
	SeedBase uint64
	// Detectors lists the variants to cross-check (default: all).
	Detectors []string
	// Shrink delta-minimizes divergent linearizations before reporting.
	Shrink bool
}

// DefaultOptions explores 20 PCT schedules per program over every
// variant with shrinking on.
func DefaultOptions() Options {
	return Options{Policy: "pct", Schedules: 20, SeedBase: 1, Detectors: core.Variants(), Shrink: true}
}

// ScheduleSeed derives the seed for schedule index j from a base seed.
func ScheduleSeed(base uint64, j int) uint64 {
	return sched.SplitMix64(base ^ sched.SplitMix64(uint64(j)+1))
}

// Divergence is one detector/oracle disagreement on one explored schedule.
type Divergence struct {
	Program  string
	Detector string
	Policy   string
	// Seed replays the schedule: RunOne(prog, Policy, Seed, ...) yields
	// Trace again, bit for bit.
	Seed uint64
	// Want and Got are the oracle's and the detector's first-race
	// positions in the recorded linearization (-1 = no race).
	Want, Got int
	// Trace is the recorded linearization, delta-minimized when
	// Options.Shrink is set.
	Trace trace.Trace
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s under %s(seed=%#x): %s first report at %d, oracle at %d",
		d.Program, d.Policy, d.Seed, d.Detector, d.Got, d.Want)
}

// Summary aggregates one program's exploration.
type Summary struct {
	Program   string
	Policy    string
	Schedules int
	// Distinct counts distinct event linearizations among the explored
	// schedules — a direct measure of how much of the schedule space the
	// policy actually reached.
	Distinct int
	// Racy counts schedules whose linearization contains a race per the
	// oracle (schedule-dependent for racy programs: the point of
	// exploring on purpose).
	Racy int
	// Events is the total number of recorded events across schedules.
	Events int
	// Divergences lists every detector/oracle disagreement found.
	Divergences []Divergence
}

// Explore runs prog under opts.Schedules controlled schedules and
// cross-checks every detector's verdict and first-report position against
// the happens-before oracle on each recorded linearization. The returned
// summary is deterministic in (prog, opts).
func Explore(prog Program, opts Options) (*Summary, error) {
	if opts.Policy == "" {
		opts.Policy = "pct"
	}
	dets := opts.Detectors
	if dets == nil {
		dets = core.Variants()
	}
	sum := &Summary{Program: prog.Name, Policy: opts.Policy, Schedules: opts.Schedules}
	seen := map[string]bool{}
	for j := 0; j < opts.Schedules; j++ {
		seed := ScheduleSeed(opts.SeedBase, j)
		tr, outs, err := RunOne(prog, opts.Policy, seed, dets)
		if err != nil {
			return nil, err
		}
		sum.Events += len(tr)
		if key := traceKey(tr); !seen[key] {
			seen[key] = true
			sum.Distinct++
		}
		oracle := hb.Analyze(tr)
		want := oracle.FirstRaceAt()
		if oracle.HasRace() {
			sum.Racy++
		}
		for _, out := range outs {
			if out.FirstReportAt != want {
				min := tr
				if opts.Shrink {
					min = Shrink(tr)
				}
				sum.Divergences = append(sum.Divergences, Divergence{
					Program:  prog.Name,
					Detector: out.Name,
					Policy:   opts.Policy,
					Seed:     seed,
					Want:     want,
					Got:      out.FirstReportAt,
					Trace:    min,
				})
			}
		}
	}
	return sum, nil
}

// traceKey renders a compact identity for distinct-linearization counting.
func traceKey(tr trace.Trace) string {
	var b strings.Builder
	for _, op := range tr {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}
