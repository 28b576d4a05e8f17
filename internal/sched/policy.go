package sched

import (
	"fmt"
	"math/rand"
)

// Policy decides, at each scheduling point, which runnable thread runs
// next. Implementations are deterministic functions of their seed: the
// scheduler calls Register and Pick in a totally ordered sequence, so the
// whole schedule replays from the seed alone.
type Policy interface {
	// Name identifies the policy, e.g. "pct".
	Name() string
	// Register informs the policy of a newly created thread. Threads are
	// registered in creation order, which is itself schedule-determined
	// and therefore seed-deterministic.
	Register(tid int)
	// Pick returns the thread to run for scheduling step `step` (1-based,
	// monotone) from the non-empty, ascending-sorted runnable set.
	Pick(step uint64, runnable []int) int
}

// PolicyNames lists the selectable policies for flag help and validation.
func PolicyNames() []string { return []string{"pct", "random"} }

// NewPolicy constructs a policy by name with default parameters: PCT uses
// depth DefaultPCTDepth over DefaultPCTSteps expected steps.
func NewPolicy(name string, seed uint64) (Policy, error) {
	switch name {
	case "pct":
		return NewPCT(seed, DefaultPCTDepth, DefaultPCTSteps), nil
	case "random":
		return NewRandomWalk(seed), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (want one of %v)", name, PolicyNames())
	}
}

const (
	// DefaultPCTDepth is the PCT bug-depth parameter d: the scheduler
	// inserts d−1 priority change points, which suffices to hit any bug
	// requiring d ordering constraints with probability ≥ 1/(n·k^(d−1)).
	DefaultPCTDepth = 3
	// DefaultPCTSteps is the step-count estimate k the change points are
	// drawn from. Runs longer than k simply see no further change points.
	DefaultPCTSteps = 4096
)

// PCT is the probabilistic concurrency testing policy of Burckhardt et al.
// (ASPLOS 2010): every thread gets a random base priority above d, the
// highest-priority runnable thread always runs, and at d−1 pre-drawn random
// steps the thread picked at that step is demoted to a priority below every
// base priority. Unlike a uniform random walk, PCT concentrates probability
// on the small number of preemption placements a depth-d schedule-sensitive
// bug needs.
type PCT struct {
	rng   *rand.Rand
	depth int
	prio  map[int]int64
	// change maps a scheduling step to the (low) priority assigned to the
	// thread picked at that step.
	change map[uint64]int64
}

// NewPCT returns a PCT policy for the given seed, bug depth (≥ 1) and
// expected step count (≥ 1).
func NewPCT(seed uint64, depth, steps int) *PCT {
	if depth < 1 || steps < 1 {
		panic(fmt.Sprintf("sched: NewPCT(depth=%d, steps=%d)", depth, steps))
	}
	p := &PCT{
		rng:    rand.New(rand.NewSource(int64(seed))),
		depth:  depth,
		prio:   map[int]int64{},
		change: map[uint64]int64{},
	}
	for i := 1; i < depth; i++ {
		// Change point i demotes to priority i: below every base
		// priority (≥ depth), and ordered among the change points so
		// later demotions sink lower than earlier ones. Positions are
		// drawn log-uniformly over [1, steps] rather than uniformly: the
		// suite schedules programs whose lengths span several orders of
		// magnitude (a ten-event kernel to a multi-thousand-event
		// benchmark), and a uniform draw over a large k would virtually
		// never preempt inside the short ones. Log-uniform placement
		// gives every length scale the same share of change points.
		p.change[p.logUniform(steps)] = int64(depth - i)
	}
	return p
}

// logUniform draws a step in [1, max] with probability uniform over the
// position's order of magnitude: first an octave [2^k, 2^(k+1)) is chosen
// uniformly, then a position within it.
func (p *PCT) logUniform(max int) uint64 {
	octaves := 1
	for 1<<octaves <= max {
		octaves++
	}
	for {
		k := p.rng.Intn(octaves)
		pos := 1<<k + p.rng.Intn(1<<k)
		if pos <= max {
			return uint64(pos)
		}
	}
}

// Name implements Policy.
func (p *PCT) Name() string { return "pct" }

// Register implements Policy: base priorities are random values above the
// change-point range, distinct with high probability (ties break by lower
// thread id in Pick, keeping the schedule deterministic either way).
func (p *PCT) Register(tid int) {
	p.prio[tid] = int64(p.depth) + p.rng.Int63n(1<<40)
}

// Pick implements Policy: run the highest-priority runnable thread, then
// demote it if this step is a change point.
func (p *PCT) Pick(step uint64, runnable []int) int {
	best := runnable[0]
	for _, t := range runnable[1:] {
		if p.prio[t] > p.prio[best] {
			best = t
		}
	}
	if low, ok := p.change[step]; ok {
		p.prio[best] = low
	}
	return best
}

// RandomWalk picks uniformly among the runnable threads at every step —
// the baseline exploration policy, and the better of the two at flushing
// out divergences that need no coordinated preemption placement.
type RandomWalk struct {
	rng *rand.Rand
}

// NewRandomWalk returns a uniform random-walk policy for the given seed.
func NewRandomWalk(seed uint64) *RandomWalk {
	return &RandomWalk{rng: rand.New(rand.NewSource(int64(seed)))}
}

// Name implements Policy.
func (p *RandomWalk) Name() string { return "random" }

// Register implements Policy (no per-thread state).
func (p *RandomWalk) Register(int) {}

// Pick implements Policy.
func (p *RandomWalk) Pick(_ uint64, runnable []int) int {
	return runnable[p.rng.Intn(len(runnable))]
}

// Exhaustive is one run of a depth-first search over schedules: it replays
// Prefix, a thread id per scheduling step, then picks the first runnable
// thread at every later step, and records each step's runnable set and
// pick. Next turns the record into the prefix of the following run.
type Exhaustive struct {
	Prefix   []int
	Runnable [][]int
	Picks    []int
}

// Name implements Policy.
func (p *Exhaustive) Name() string { return "exhaustive" }

// Register implements Policy (no per-thread state).
func (p *Exhaustive) Register(int) {}

// Pick implements Policy. It counts steps itself, so a caller may filter
// the runnable set and skip steps it forces.
func (p *Exhaustive) Pick(_ uint64, runnable []int) int {
	i := len(p.Picks)
	pick := runnable[0]
	if i < len(p.Prefix) {
		pick = p.Prefix[i]
	}
	p.Runnable = append(p.Runnable, append([]int(nil), runnable...))
	p.Picks = append(p.Picks, pick)
	return pick
}

// Next returns the prefix that replays the recorded run up to its deepest
// step below limit with an untried runnable thread, and takes that
// thread. It returns false when every such step is exhausted, which ends
// the search.
func (p *Exhaustive) Next(limit int) ([]int, bool) {
	for i := min(limit, len(p.Picks)) - 1; i >= 0; i-- {
		rs := p.Runnable[i]
		for j, t := range rs[:len(rs)-1] {
			if t == p.Picks[i] {
				return append(p.Picks[:i:i], rs[j+1]), true
			}
		}
	}
	return nil, false
}

// SplitMix64 derives a well-mixed 64-bit value from x — the standard
// splitmix64 finalizer. conformance.ScheduleSeed uses it to derive
// independent schedule seeds from (base seed, schedule index) so printed
// seeds replay exactly.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
