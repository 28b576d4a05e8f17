package trace

import (
	"io"
	"math/rand"

	"repro/internal/epoch"
)

// GenConfig parameterizes the random feasible-trace generator. The zero
// value is not useful; use DefaultGenConfig as a starting point.
type GenConfig struct {
	Ops     int // number of operations to attempt
	Threads int // maximum number of threads (including main)
	Vars    int // number of variables
	Locks   int // number of locks

	// Weights bias the operation mix; they need not sum to anything.
	ReadWeight    int
	WriteWeight   int
	AcquireWeight int
	ForkWeight    int
	JoinWeight    int

	// LockedFraction is the per-mille probability that an access happens
	// while holding a lock chosen to protect its variable; higher values
	// produce more race-free traces. The generator does not guarantee
	// race freedom either way — the oracle decides.
	LockedFraction int

	// Go-synchronization traffic (trace format v2). All weights default
	// to zero, in which case the generator draws from the rng exactly as
	// it did before these fields existed — existing (seed, cfg) pairs
	// reproduce their traces bit for bit.
	Chans   int // number of channels; 0 disables channel traffic
	ChanCap int // channel c gets buffer capacity c % (ChanCap+1); 0: all unbuffered
	Atomics int // number of atomic locations
	Onces   int // number of once ids

	ChanWeight   int // weight of a channel action (send/recv/close mix)
	AtomicWeight int // weight of an atomic load/store/RMW
	OnceWeight   int // weight of a once-do
}

// DefaultGenConfig returns a configuration producing small, varied traces
// with a healthy mix of racy and race-free executions.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Ops:            60,
		Threads:        4,
		Vars:           4,
		Locks:          2,
		ReadWeight:     6,
		WriteWeight:    3,
		AcquireWeight:  3,
		ForkWeight:     1,
		JoinWeight:     1,
		LockedFraction: 500,
	}
}

// GoSyncGenConfig returns a configuration that mixes the Go
// synchronization kinds — channel traffic over unbuffered and buffered
// channels, atomics, onces — into the default core mix, for exercising
// the v2 lowering end to end.
func GoSyncGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Chans = 3
	cfg.ChanCap = 2 // capacities 0, 1, 2 across the three channels
	cfg.Atomics = 2
	cfg.Onces = 2
	cfg.ChanWeight = 4
	cfg.AtomicWeight = 2
	cfg.OnceWeight = 1
	return cfg
}

// Extensions returns the out-of-band lowering parameters matching the
// configuration's channel-capacity assignment (channel c has capacity
// c % (ChanCap+1)), or nil when every channel is unbuffered — pass it
// wherever the generated trace is validated, lowered or checked.
func (cfg GenConfig) Extensions() *Extensions {
	if cfg.Chans == 0 || cfg.ChanCap <= 0 {
		return nil
	}
	caps := make(map[Lock]int, cfg.Chans)
	for c := 0; c < cfg.Chans; c++ {
		caps[Lock(c)] = c % (cfg.ChanCap + 1)
	}
	return &Extensions{ChanCapacity: caps}
}

// Generate produces a random feasible trace. The result always passes
// Validate: the generator tracks the same lifecycle and lock state the
// checker does and only emits legal operations. Any held locks are released
// before returning so the trace ends quiescent.
func Generate(rng *rand.Rand, cfg GenConfig) Trace {
	g := &generator{rng: rng, cfg: cfg}
	g.init()
	for g.steps < cfg.Ops {
		g.step()
	}
	g.drain()
	return g.out
}

// GenerateSource is the streaming mode of the generator: it returns a
// Source producing the exact operation sequence Generate(rng, cfg) would,
// one op at a time, without ever materializing it — the generator's state
// is O(Threads + Locks), so a multi-gigabyte synthetic trace costs a few
// kilobytes of memory to produce. The two modes draw from the rng in the
// same order, so for equal (seed, cfg) they are interchangeable; the
// bounded-memory tests of the public CheckSource rely on exactly that.
func GenerateSource(rng *rand.Rand, cfg GenConfig) Source {
	g := &generator{rng: rng, cfg: cfg}
	g.init()
	return &genSource{g: g}
}

// genSource pulls the generator one step at a time. Each step emits a
// handful of ops into g.out, which Next drains as a queue before stepping
// again; drainHead keeps the slice from growing with the stream.
type genSource struct {
	g       *generator
	head    int
	drained bool
}

func (s *genSource) Next() (Op, error) {
	g := s.g
	for {
		if s.head < len(g.out) {
			op := g.out[s.head]
			s.head++
			return op, nil
		}
		g.out = g.out[:0]
		s.head = 0
		switch {
		case g.steps < g.cfg.Ops:
			g.step()
		case !s.drained:
			g.drain()
			s.drained = true
		default:
			return Op{}, io.EOF
		}
	}
}

type generator struct {
	rng   *rand.Rand
	cfg   GenConfig
	out   Trace
	steps int // steps taken so far

	running  []epoch.Tid          // threads currently allowed to act
	acted    map[epoch.Tid]bool   // constraint (5) bookkeeping
	forked   map[epoch.Tid]bool   // constraint (3)
	holds    map[epoch.Tid][]Lock // locks held per thread, in acquire order
	lockHeld map[Lock]bool
	joined   []epoch.Tid // threads already joined (re-joinable per §2)
	next     epoch.Tid   // next unforked tid

	chans map[Lock]*genChan // channel state (constraint 6 bookkeeping)
}

// genChan mirrors the validator's per-channel state: a blocked sender
// leaves running until a receive completes its send.
type genChan struct {
	sends   int
	recvs   int
	closed  bool
	blocked []epoch.Tid
}

func (g *generator) init() {
	g.running = []epoch.Tid{0}
	g.acted = map[epoch.Tid]bool{0: true}
	g.forked = map[epoch.Tid]bool{0: true}
	g.holds = map[epoch.Tid][]Lock{}
	g.lockHeld = map[Lock]bool{}
	g.next = 1
}

func (g *generator) emit(op Op) {
	g.out = append(g.out, op)
	g.acted[op.T] = true
}

// step emits one or a few operations (an access may come wrapped in an
// acquire/release pair).
func (g *generator) step() {
	g.steps++
	t := g.running[g.rng.Intn(len(g.running))]
	w := g.cfg
	total := w.ReadWeight + w.WriteWeight + w.AcquireWeight + w.ForkWeight + w.JoinWeight +
		w.ChanWeight + w.AtomicWeight + w.OnceWeight
	if total == 0 {
		total, w.ReadWeight = 1, 1
	}
	pick := g.rng.Intn(total)
	switch {
	case pick < w.ReadWeight:
		g.access(t, Read)
	case pick < w.ReadWeight+w.WriteWeight:
		g.access(t, Write)
	case pick < w.ReadWeight+w.WriteWeight+w.AcquireWeight:
		g.lockCycle(t)
	case pick < w.ReadWeight+w.WriteWeight+w.AcquireWeight+w.ForkWeight:
		g.fork(t)
	case pick < w.ReadWeight+w.WriteWeight+w.AcquireWeight+w.ForkWeight+w.JoinWeight:
		g.join(t)
	case pick < w.ReadWeight+w.WriteWeight+w.AcquireWeight+w.ForkWeight+w.JoinWeight+w.ChanWeight:
		g.chanOp(t)
	case pick < w.ReadWeight+w.WriteWeight+w.AcquireWeight+w.ForkWeight+w.JoinWeight+w.ChanWeight+w.AtomicWeight:
		g.atomicOp(t)
	default:
		g.onceOp(t)
	}
}

// access emits a read or write of a random variable, possibly wrapped in
// the lock conventionally protecting that variable (lock x%Locks), which is
// what makes a fraction of generated conflicts race-free.
func (g *generator) access(t epoch.Tid, k Kind) {
	x := Var(g.rng.Intn(max(1, g.cfg.Vars)))
	locked := g.cfg.Locks > 0 && g.rng.Intn(1000) < g.cfg.LockedFraction
	var m Lock
	if locked {
		m = Lock(int(x) % g.cfg.Locks)
		locked = !g.lockHeld[m]
	}
	if locked {
		g.emit(Acq(t, m))
		g.lockHeld[m] = true
		g.holds[t] = append(g.holds[t], m)
	}
	if k == Read {
		g.emit(Rd(t, x))
	} else {
		g.emit(Wr(t, x))
	}
	if locked {
		g.release(t, m)
	}
}

// lockCycle acquires a random free lock and releases it after zero or more
// accesses, creating critical sections of varying length.
func (g *generator) lockCycle(t epoch.Tid) {
	if g.cfg.Locks == 0 {
		g.access(t, Read)
		return
	}
	m := Lock(g.rng.Intn(g.cfg.Locks))
	if g.lockHeld[m] {
		// Lock busy; do a plain access instead of blocking (the generator
		// produces a linearized trace, so "waiting" has no meaning).
		g.access(t, Read)
		return
	}
	g.emit(Acq(t, m))
	g.lockHeld[m] = true
	g.holds[t] = append(g.holds[t], m)
	for n := g.rng.Intn(3); n > 0; n-- {
		x := Var(g.rng.Intn(max(1, g.cfg.Vars)))
		if g.rng.Intn(2) == 0 {
			g.emit(Rd(t, x))
		} else {
			g.emit(Wr(t, x))
		}
	}
	g.release(t, m)
}

func (g *generator) release(t epoch.Tid, m Lock) {
	g.emit(Rel(t, m))
	g.lockHeld[m] = false
	hs := g.holds[t]
	for i, h := range hs {
		if h == m {
			g.holds[t] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
}

func (g *generator) fork(t epoch.Tid) {
	if int(g.next) >= g.cfg.Threads {
		g.access(t, Write)
		return
	}
	u := g.next
	g.next++
	g.forked[u] = true
	g.acted[u] = false
	g.emit(ForkOp(t, u))
	g.running = append(g.running, u)
}

// join makes t join some other running thread that has already acted
// (constraint 5) and holds no locks (so the trace can stay feasible without
// forced releases). Occasionally it re-joins an already-joined thread —
// §2 allows several joiners per thread, and the detectors must handle it
// (it is the case where the original FastTrack [Join] increment
// complicates the synchronization discipline, §3).
func (g *generator) join(t epoch.Tid) {
	if len(g.joined) > 0 && g.rng.Intn(4) == 0 {
		u := g.joined[g.rng.Intn(len(g.joined))]
		if u != t {
			g.emit(JoinOp(t, u))
			return
		}
	}
	var candidates []epoch.Tid
	for _, u := range g.running {
		if u != t && u != 0 && g.acted[u] && len(g.holds[u]) == 0 {
			candidates = append(candidates, u)
		}
	}
	if len(candidates) == 0 {
		g.access(t, Read)
		return
	}
	u := candidates[g.rng.Intn(len(candidates))]
	g.emit(JoinOp(t, u))
	g.joined = append(g.joined, u)
	for i, r := range g.running {
		if r == u {
			g.running = append(g.running[:i], g.running[i+1:]...)
			break
		}
	}
}

// capOf returns the buffer capacity of channel c under the config's
// deterministic assignment; it must agree with GenConfig.Extensions.
func (g *generator) capOf(c Lock) int {
	if g.cfg.ChanCap <= 0 {
		return 0
	}
	return int(c) % (g.cfg.ChanCap + 1)
}

func (g *generator) chanFor(c Lock) *genChan {
	if g.chans == nil {
		g.chans = map[Lock]*genChan{}
	}
	st, ok := g.chans[c]
	if !ok {
		st = &genChan{}
		g.chans[c] = st
	}
	return st
}

// chanOp performs one feasible channel action on a random channel,
// tracking the same state the validator does: a send that cannot complete
// blocks its thread (removing it from running until a receive pairs with
// it), which the generator only risks while at least one other thread
// stays runnable. Sends and receives are weighted over closes, and a
// close is only offered in the last tenth of the steps (the last 30 in a
// short trace): a closed channel yields nothing but zero-value receives,
// so an early close would leave the trace with a handful of sends. With
// no feasible action the step degrades to a plain read, like a busy lock.
func (g *generator) chanOp(t epoch.Tid) {
	if g.cfg.Chans == 0 {
		g.access(t, Read)
		return
	}
	c := Lock(g.rng.Intn(g.cfg.Chans))
	st := g.chanFor(c)
	capacity := g.capOf(c)
	const (
		doSend = iota
		doRecv
		doClose
	)
	var moves []int
	completes := capacity > 0 && st.sends-st.recvs < capacity && len(st.blocked) == 0
	if !st.closed && (completes || len(g.running) > 1) {
		moves = append(moves, doSend, doSend)
	}
	if st.sends-st.recvs > 0 || len(st.blocked) > 0 || st.closed {
		moves = append(moves, doRecv, doRecv)
	}
	if !st.closed && len(st.blocked) == 0 && g.cfg.Ops-g.steps < max(g.cfg.Ops/10, 30) {
		moves = append(moves, doClose)
	}
	if len(moves) == 0 {
		g.access(t, Read)
		return
	}
	switch moves[g.rng.Intn(len(moves))] {
	case doSend:
		g.emit(SendOp(t, c))
		if completes {
			st.sends++
			return
		}
		st.blocked = append(st.blocked, t)
		for i, r := range g.running {
			if r == t {
				g.running = append(g.running[:i], g.running[i+1:]...)
				break
			}
		}
	case doRecv:
		g.emit(RecvOp(t, c))
		if st.sends-st.recvs > 0 || len(st.blocked) > 0 {
			st.recvs++
			if len(st.blocked) > 0 {
				u := st.blocked[0]
				st.blocked = st.blocked[1:]
				st.sends++
				g.running = append(g.running, u)
			}
		}
		// Otherwise the channel is closed and drained: a zero-value
		// receive, no sequence number consumed.
	default:
		g.emit(CloseOp(t, c))
		st.closed = true
	}
}

// atomicOp emits one atomic load, store or RMW on a random location.
func (g *generator) atomicOp(t epoch.Tid) {
	if g.cfg.Atomics == 0 {
		g.access(t, Read)
		return
	}
	a := Var(g.rng.Intn(g.cfg.Atomics))
	switch g.rng.Intn(3) {
	case 0:
		g.emit(ALoad(t, a))
	case 1:
		g.emit(AStore(t, a))
	default:
		g.emit(ARMW(t, a))
	}
}

// onceOp emits a once-do on a random once id (always feasible).
func (g *generator) onceOp(t epoch.Tid) {
	if g.cfg.Onces == 0 {
		g.access(t, Read)
		return
	}
	g.emit(OnceOp(t, Lock(g.rng.Intn(g.cfg.Onces))))
}

// drain releases every held lock so the generated trace ends quiescent.
// Threads are visited in id order so Generate is deterministic for a given
// seed (map iteration order would not be).
func (g *generator) drain() {
	for t := epoch.Tid(0); int(t) < g.cfg.Threads; t++ {
		hs := g.holds[t]
		for i := len(hs) - 1; i >= 0; i-- {
			g.emit(Rel(t, hs[i]))
			g.lockHeld[hs[i]] = false
		}
		g.holds[t] = nil
	}
}
