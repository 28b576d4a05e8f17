// Package parcheck is the two-phase parallel offline checker: it turns
// the sequential trace replay of CheckTrace/CheckSource into a
// variable-sharded fan-out while producing the byte-identical report list.
//
// Phase 1 (sync prepass) streams the lowered trace once in the calling
// goroutine, processing only the synchronization operations
// (acquire/release/fork/join — volatiles and barriers have already been
// lowered to these) to maintain every thread's vector clock, exactly as
// the sequential detectors' [Acquire]/[Release]/[Fork]/[Join] handlers
// do. Each read/write event is annotated with an immutable snapshot of
// the acting thread's clock (vc.Freeze: copy-on-write, so a thread whose
// clock is unchanged since its last access reuses the same snapshot) and
// routed to a shard queue by variable id. Snapshots are interned, so
// threads whose clocks coincide share one object and the hit rate is
// observable. The prepass allocates O(sync ops) snapshots, not
// O(accesses).
//
// Phase 2 (sharded replay) runs one worker per shard, each replaying its
// variables' accesses — in stream order, which sharding by variable
// preserves — through the unmodified per-variable state machine of the
// selected detector variant (Fig. 2/Fig. 4 epochs, DJIT vector clocks, or
// the Eraser lockset machine) against the precomputed timestamps. Phase 2
// overlaps phase 1: workers drain their queues while the prepass is still
// streaming.
//
// The split is sound because the access rules never mutate thread clocks:
// a read/write handler only inspects the acting thread's clock and
// mutates per-variable state. The prepass therefore computes exactly the
// clock the sequential replay would have seen at each access, and within
// one variable the access order — hence the state-machine evolution, the
// report emissions and the per-variable report cap — is the sequential
// order. A final merge sorts reports by (stream position, emission index)
// and assigns Seq, reproducing the sequential sink's order and numbering
// deterministically, independent of worker scheduling.
package parcheck

import (
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Options configures a parallel check.
type Options struct {
	// Variant is the detector variant to emulate (default vft-v2). The
	// five precise epoch variants share one offline report semantics;
	// djit and eraser run their own machines.
	Variant string
	// Workers is the shard worker count; <= 0 means GOMAXPROCS.
	Workers int
	// MaxReportsPerVar caps race reports per variable (0 = unlimited),
	// with the same semantics as the sequential sink.
	MaxReportsPerVar int
	// Threads, Vars and Locks are table size hints (grown on demand).
	Threads, Vars, Locks int
	// Metrics, when non-nil, receives a frozen "parcheck" source after a
	// successful run: shard balance, queue depth, intern hit rate, freeze
	// reuse, and op/report accounting.
	Metrics *obs.Registry
	// StatsSink, when non-nil, is called once with the same snapshot a
	// Metrics registry would receive. Unlike Metrics — which registers a
	// new frozen source per run and therefore suits one-shot tools — a
	// sink lets a long-running caller (the ingestion service, which checks
	// thousands of uploads per registry lifetime) fold each run's stats
	// into its own accumulators without growing the registry per check.
	StatsSink func(obs.Snapshot)
	// Sampling, when non-nil, enables the per-variable sampling tier:
	// accesses to variables the policy rejects are dropped in the prepass
	// (counted in the stats as sampling.suppressed_*) before they reach a
	// shard. The policy is a pure function of (seed, variable id), so the
	// sharded run and the sequential sampled replay drop exactly the same
	// accesses and their report lists stay byte-identical; see
	// internal/sample for the soundness argument.
	Sampling *sample.Policy
}

// batchSize is the shard-queue granularity: large enough to amortize
// channel synchronization over cheap per-access work, small enough to
// keep workers busy while the prepass streams.
const batchSize = 512

// queueDepth is the per-shard channel buffer, in batches.
const queueDepth = 8

// shardWorker is one shard's replay state.
type shardWorker struct {
	mode      checkMode
	priorRead bool
	maxPerVar int

	ft     varTable[ftVar]
	djit   varTable[djitVar]
	eraser varTable[eraserVar]

	out      []taggedReport
	dropped  uint64
	accesses uint64
	elided   uint64
}

func (w *shardWorker) run(ch <-chan []access, pool *sync.Pool) {
	for batch := range ch {
		w.runBatch(batch)
		pool.Put(batch[:0])
	}
}

// runBatch replays one batch. The mode dispatch is hoisted out of the
// per-access loop and unfused records (the overwhelmingly common case on
// run-free traces) call their step directly: this loop is the workers'
// entire hot path, and an extra call layer per access is measurable on
// the Table-1 workloads.
func (w *shardWorker) runBatch(batch []access) {
	switch w.mode {
	case modeFT:
		for _, a := range batch {
			w.accesses += uint64(a.n)
			if a.n == 1 {
				w.stepFT(a, a.idx, a.pattern&1 != 0)
			} else {
				w.runAccess(a)
			}
		}
	case modeDJIT:
		for _, a := range batch {
			w.accesses += uint64(a.n)
			if a.n == 1 {
				w.stepDJIT(a, a.idx, a.pattern&1 != 0)
			} else {
				w.runAccess(a)
			}
		}
	default:
		for _, a := range batch {
			w.accesses += uint64(a.n)
			if a.n == 1 {
				w.stepEraser(a, a.idx, a.pattern&1 != 0)
			} else {
				w.runAccess(a)
			}
		}
	}
}

// threadState is one thread's prepass context.
type threadState struct {
	vc *vc.VC // clock modes

	// lastRaw/lastInterned memoize the interning of the thread's current
	// snapshot so the intern table is consulted once per clock change,
	// not once per access.
	lastRaw      *vc.Frozen
	lastInterned *vc.Frozen

	held *lockSet // eraser mode
}

// Check streams the lowered core-language trace from src through the
// two-phase parallel checker and returns the same report list the
// sequential replay of the selected variant would produce. src must
// already be validated and desugared (the CheckSource pipeline); on a
// stream error the error is returned and all reports are discarded,
// matching the sequential contract.
func Check(src trace.Source, opts Options) ([]core.Report, error) {
	return run(opts, func(p *prepassState) error { return p.stream(src) })
}

// CheckTrace is the materialized-trace fast path: it checks a raw (not
// yet validated or lowered) trace by fusing the feasibility validation
// and extended-op lowering of the CheckSource pipeline into the prepass
// loop itself. The three per-op virtual Next() hops of the composable
// stages are the dominant serial cost the prepass would otherwise pay, so
// fusing them is what lets phase 2's parallelism show up end-to-end.
// ext has DesugarSource's meaning (barrier participant counts, channel
// capacities; nil for all defaults); the lowering — parity lock remap,
// pseudo-lock allocation order, barrier round and channel communication
// grouping, incomplete rounds and still-blocked sends dropped — is the
// shared trace.Lowerer itself, so it matches the streaming pipeline
// operation for operation, and the first infeasible op yields the
// identical *InfeasibleError the streaming pipeline would have produced.
func CheckTrace(tr trace.Trace, ext *trace.Extensions, opts Options) ([]core.Report, error) {
	return run(opts, func(p *prepassState) error { return p.streamTrace(tr, ext) })
}

// run is the shared two-phase engine: spawn the shard workers, drive the
// prepass via streamFn in the calling goroutine, then merge.
func run(opts Options, streamFn func(*prepassState) error) ([]core.Report, error) {
	variant := opts.Variant
	if variant == "" {
		variant = "vft-v2"
	}
	vs, err := modeFor(variant)
	if err != nil {
		return nil, err
	}
	mode := vs.mode
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Phase 2 plumbing: one queue + worker per shard, batches recycled
	// through a pool.
	pool := &sync.Pool{New: func() any { return make([]access, 0, batchSize) }}
	chans := make([]chan []access, workers)
	ws := make([]*shardWorker, workers)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan []access, queueDepth)
		ws[i] = &shardWorker{mode: mode, priorRead: vs.priorRead, maxPerVar: opts.MaxReportsPerVar}
		switch mode {
		case modeFT:
			ws[i].ft = newVarTable[ftVar](workers, opts.Vars)
		case modeDJIT:
			ws[i].djit = newVarTable[djitVar](workers, opts.Vars)
		default:
			ws[i].eraser = newVarTable[eraserVar](workers, opts.Vars)
		}
		wg.Add(1)
		go func(w *shardWorker, ch <-chan []access) {
			defer wg.Done()
			w.run(ch, pool)
		}(ws[i], chans[i])
	}

	// Phase 1: the sync prepass, in the calling goroutine.
	p := &prepassState{
		mode:     mode,
		sampler:  opts.Sampling,
		joinInc:  vs.joinInc,
		intern:   vc.NewInterner(),
		threads:  make([]*threadState, 0, opts.Threads),
		locks:    make([]*vc.Frozen, 0, opts.Locks),
		batches:  make([][]access, workers),
		chans:    chans,
		pool:     pool,
		nWorkers: workers,
		shardMask: func() int {
			if workers&(workers-1) == 0 {
				return workers - 1
			}
			return -1
		}(),
	}
	streamErr := streamFn(p)

	for i, b := range p.batches {
		if len(b) > 0 {
			p.send(i, b)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	if streamErr != nil {
		return nil, streamErr
	}

	// Merge: deterministic order by stream position, then emission index.
	total := 0
	for _, w := range ws {
		total += len(w.out)
	}
	merged := make([]taggedReport, 0, total)
	for _, w := range ws {
		merged = append(merged, w.out...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].idx != merged[j].idx {
			return merged[i].idx < merged[j].idx
		}
		return merged[i].sub < merged[j].sub
	})
	reports := make([]core.Report, 0, total)
	for i, tr := range merged {
		r := tr.rep
		r.Detector = variant
		r.Seq = i
		reports = append(reports, r)
	}

	if opts.Metrics != nil || opts.StatsSink != nil {
		snap := p.stats(ws, uint64(total))
		if opts.Metrics != nil {
			opts.Metrics.RegisterSource("parcheck", snap.Source())
		}
		if opts.StatsSink != nil {
			opts.StatsSink(snap)
		}
	}
	return reports, nil
}

// prepassState is the phase-1 streaming state.
type prepassState struct {
	mode    checkMode
	joinInc bool
	intern  *vc.Interner

	// sampler is the optional per-variable sampling policy; decisions is
	// its dense cache (0 undecided, 1 sampled, 2 suppressed), plain bytes
	// because the prepass is the single serial phase — the hot check is
	// one slice load and a compare.
	sampler   *sample.Policy
	decisions []uint8

	threads []*threadState
	locks   []*vc.Frozen // release clocks by lowered lock id (clock modes)

	// last points at the most recently appended access record — the open
	// fused run: an adjacent same-thread read/write of the same variable
	// bumps its n and write bitmask in place instead of appending a new
	// record. The pointer is stable because batch slices come from the
	// pool at their full fixed capacity and are never reallocated. It is
	// cleared by anything that ends a run — a sync operation (the next
	// access needs a fresh stamp), or the batch being handed to its
	// worker. The first op's eager clock/lockset stamp covers the whole
	// run because nothing at all separates the run's ops, so the thread's
	// context is identical at every one.
	last *access

	batches  [][]access
	chans    []chan []access
	pool     *sync.Pool
	nWorkers int
	// shardMask is nWorkers-1 when nWorkers is a power of two, else -1:
	// sharding is one AND instead of an integer division in the common
	// 1/2/4/8-worker configurations, and emitAccess is on the serial
	// critical path once per access.
	shardMask int

	ops, accesses, syncs, batchesSent uint64
	fusedRuns, fusedOps               uint64
	maxQueueDepth                     int

	suppressedReads, suppressedWrites uint64
	sampledVars, suppressedVars       uint64
}

// sampledVar answers the sampling decision for x through the dense cache,
// consulting the policy hash only on a variable's first access.
func (p *prepassState) sampledVar(x trace.Var) bool {
	i := int(uint32(x))
	if i >= len(p.decisions) {
		p.decisions = append(p.decisions, make([]uint8, i+1-len(p.decisions))...)
	}
	switch p.decisions[i] {
	case 1:
		return true
	case 2:
		return false
	}
	if p.sampler.Sampled(x) {
		p.decisions[i] = 1
		p.sampledVars++
		return true
	}
	p.decisions[i] = 2
	p.suppressedVars++
	return false
}

func (p *prepassState) thread(t epoch.Tid) *threadState {
	for int(t) >= len(p.threads) {
		p.threads = append(p.threads, nil)
	}
	ts := p.threads[t]
	if ts == nil {
		ts = &threadState{}
		if p.mode == modeEraser {
			ts.held = emptyLockSet
		} else {
			// Mirror core.newThreadState: the clock starts at inc_t(⊥V).
			ts.vc = vc.New()
			ts.vc.Inc(t)
		}
		p.threads[t] = ts
	}
	return ts
}

func (p *prepassState) lock(m trace.Lock) *vc.Frozen {
	if int(m) < len(p.locks) {
		return p.locks[m]
	}
	return nil // never released: the minimal clock
}

func (p *prepassState) setLock(m trace.Lock, f *vc.Frozen) {
	for int(m) >= len(p.locks) {
		p.locks = append(p.locks, nil)
	}
	p.locks[m] = f
}

// stamp returns the interned snapshot of the thread's current clock,
// re-interning only when the clock changed since the thread's last stamp.
func (p *prepassState) stamp(ts *threadState) *vc.Frozen {
	f := ts.vc.Freeze()
	if f != ts.lastRaw {
		ts.lastRaw = f
		ts.lastInterned = p.intern.Intern(f)
	}
	return ts.lastInterned
}

func (p *prepassState) send(shard int, batch []access) {
	if d := len(p.chans[shard]); d > p.maxQueueDepth {
		p.maxQueueDepth = d
	}
	p.chans[shard] <- batch
	p.batchesSent++
}

// emitAccess routes one read/write to its variable's shard, fusing it into
// the open run when it is adjacent (same thread, same variable, no
// intervening operation, run not full): the run's record is extended in
// place inside the still-unsent batch, so a long run costs one append and
// one stamp no matter its length, and the no-run path is one compare
// heavier than plain routing. A batch boundary splits a run into two
// records, which replay identically.
func (p *prepassState) emitAccess(idx int, t epoch.Tid, x trace.Var, write bool) {
	// Sampling filters here, before run fusion and routing: a suppressed
	// access neither ends the open fused run nor reaches a shard, exactly
	// as if the filtered trace had never contained it — which is what
	// keeps the sharded sampled run byte-identical to the sequential
	// sampled replay (both equal the precise check of the filtered trace).
	if p.sampler != nil && !p.sampledVar(x) {
		if write {
			p.suppressedWrites++
		} else {
			p.suppressedReads++
		}
		return
	}
	p.accesses++
	if a := p.last; a != nil && a.t == t && a.x == x && int(a.n) < fuseMax {
		if write {
			a.pattern |= 1 << a.n
		}
		if a.n == 1 {
			p.fusedRuns++
			p.fusedOps++ // the run's first op, counted once
		}
		a.n++
		p.fusedOps++
		return
	}
	a := access{idx: idx, t: t, x: x, n: 1}
	if write {
		a.pattern = 1
	}
	if p.mode == modeEraser {
		a.held = p.thread(t).held
	} else {
		a.clock = p.stamp(p.thread(t))
	}
	shard := int(uint32(x)) & p.shardMask
	if p.shardMask < 0 {
		shard = int(uint32(x)) % p.nWorkers
	}
	b := p.batches[shard]
	if b == nil {
		b = p.pool.Get().([]access)
	}
	b = append(b, a)
	if len(b) == cap(b) {
		p.send(shard, b)
		b = nil
		p.last = nil
	} else {
		p.last = &b[len(b)-1]
	}
	p.batches[shard] = b
}

// The prepass sync handlers mirror the sequential detectors'
// [Acquire]/[Release]/[Fork]/[Join] rules (lockset bookkeeping in eraser
// mode). They take already-lowered lock ids.

func (p *prepassState) acquire(t epoch.Tid, m trace.Lock) {
	p.last = nil // a sync edge ends the open fused run
	p.syncs++
	ts := p.thread(t)
	if p.mode == modeEraser {
		ts.held = ts.held.with(m)
	} else {
		// [Acquire]: St.V := St.V ⊔ Sm.V.
		ts.vc.JoinFrozen(p.lock(m))
	}
}

func (p *prepassState) release(t epoch.Tid, m trace.Lock) {
	p.last = nil // a sync edge ends the open fused run
	p.syncs++
	ts := p.thread(t)
	if p.mode == modeEraser {
		ts.held = ts.held.without(m)
	} else {
		// [Release]: Sm.V := St.V; St.V := inc_t(St.V).
		p.setLock(m, p.stamp(ts))
		ts.vc.Inc(t)
	}
}

func (p *prepassState) fork(t, u epoch.Tid) {
	p.last = nil // a sync edge ends the open fused run
	p.syncs++
	if p.mode != modeEraser {
		// [Fork]: Su.V := Su.V ⊔ St.V; St.V := inc_t(St.V).
		st, su := p.thread(t), p.thread(u)
		su.vc.Join(st.vc)
		st.vc.Inc(t)
	}
}

func (p *prepassState) join(t, u epoch.Tid) {
	p.last = nil // a sync edge ends the open fused run
	p.syncs++
	if p.mode != modeEraser {
		// [Join]: St.V := St.V ⊔ Su.V, plus the original FastTrack
		// Su.V(u) increment for the FT baselines.
		st, su := p.thread(t), p.thread(u)
		st.vc.Join(su.vc)
		if p.joinInc {
			su.vc.Inc(u)
		}
	}
}

// stream pulls the lowered stream to EOF (or error), running the sync
// handlers and routing accesses.
func (p *prepassState) stream(src trace.Source) error {
	idx := 0
	for {
		op, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch op.Kind {
		case trace.Read:
			p.emitAccess(idx, op.T, op.X, false)
		case trace.Write:
			p.emitAccess(idx, op.T, op.X, true)
		case trace.Acquire:
			p.acquire(op.T, op.M)
		case trace.Release:
			p.release(op.T, op.M)
		case trace.Fork:
			p.fork(op.T, op.U)
		case trace.Join:
			p.join(op.T, op.U)
		default:
			return &trace.InfeasibleError{Index: idx, Op: op, Msg: "extended op reached parcheck (desugar first)"}
		}
		idx++
		p.ops++
	}
}

// streamTrace is the fused slice prepass: validation and lowering run
// inline per operation, so the serial phase costs a few slice loads per
// op instead of three interface dispatches plus pipeline bookkeeping.
// Semantics parity with the streaming pipeline, piece by piece:
//
//   - validation sees the raw (pre-lowering) ops in order, exactly like
//     ValidateSource in front of DesugarSource, so an infeasible trace
//     produces the identical error at the identical raw index;
//   - the lowering is the shared trace.Lowerer in its parity numbering
//     (real lock m → 2m, k-th pseudo-lock → 2k+1, first-use allocation
//     order) — the same code DesugarSource runs, dispatching into the
//     prepass handlers instead of a queue, so the two paths cannot drift.
//
// idx counts lowered ops, mirroring the stream path, so the merge order
// of reports is identical whichever entry point saw the trace.
func (p *prepassState) streamTrace(tr trace.Trace, ext *trace.Extensions) error {
	v := trace.NewValidator()
	v.Ext = ext
	low := trace.NewParityLowerer(ext)
	idx := 0
	emit := func(op trace.Op) {
		switch op.Kind {
		case trace.Read:
			p.emitAccess(idx, op.T, op.X, false)
		case trace.Write:
			p.emitAccess(idx, op.T, op.X, true)
		case trace.Acquire:
			p.acquire(op.T, op.M)
		case trace.Release:
			p.release(op.T, op.M)
		case trace.Fork:
			p.fork(op.T, op.U)
		case trace.Join:
			p.join(op.T, op.U)
		}
		idx++
	}
	for _, op := range tr {
		if err := v.Check(op); err != nil {
			return err
		}
		low.Lower(op, emit)
	}
	// ops.total counts lowered ops, as the stream path does; idx tracked
	// exactly that.
	p.ops = uint64(idx)
	return nil
}

// stats assembles the run's observability snapshot.
func (p *prepassState) stats(ws []*shardWorker, reports uint64) obs.Snapshot {
	s := obs.NewSnapshot()
	s.Counters["ops.total"] = p.ops
	s.Counters["ops.access"] = p.accesses
	s.Counters["ops.sync"] = p.syncs
	s.Counters["batches"] = p.batchesSent
	s.Counters["reports.recorded"] = reports
	s.Counters["fused.runs"] = p.fusedRuns
	s.Counters["fused.ops"] = p.fusedOps

	var dropped, elided uint64
	minAcc, maxAcc := ^uint64(0), uint64(0)
	for _, w := range ws {
		dropped += w.dropped
		elided += w.elided
		if w.accesses < minAcc {
			minAcc = w.accesses
		}
		if w.accesses > maxAcc {
			maxAcc = w.accesses
		}
	}
	s.Counters["reports.dropped"] = dropped
	s.Counters["ops.elided"] = elided

	hits, misses := p.intern.Stats()
	s.Counters["intern.hits"] = hits
	s.Counters["intern.misses"] = misses

	var clocks vc.Metrics
	for _, ts := range p.threads {
		if ts != nil && ts.vc != nil {
			clocks.Add(ts.vc.Metrics())
		}
	}
	s.Counters["vc.grows"] = clocks.Grows
	s.Counters["vc.joins"] = clocks.Joins
	s.Counters["vc.join_scanned"] = clocks.JoinScanned
	s.Counters["vc.freezes"] = clocks.Freezes
	s.Counters["vc.freeze_reuses"] = clocks.FreezeReuses

	if p.sampler != nil {
		s.Counters["sampling.suppressed_reads"] = p.suppressedReads
		s.Counters["sampling.suppressed_writes"] = p.suppressedWrites
		s.Gauges["sampling.vars.sampled"] = p.sampledVars
		s.Gauges["sampling.vars.suppressed"] = p.suppressedVars
		s.Gauges["sampling.rate_ppm"] = core.RatePPM(p.sampler.Rate)
		if total := p.sampledVars + p.suppressedVars; total > 0 {
			s.Gauges["sampling.effective_rate_ppm"] = p.sampledVars * 1_000_000 / total
		}
	}

	s.Gauges["workers"] = uint64(len(ws))
	s.Gauges["intern.distinct"] = uint64(p.intern.Len())
	s.Gauges["queue.max_depth"] = uint64(p.maxQueueDepth)
	s.Gauges["shard.accesses.max"] = maxAcc
	s.Gauges["shard.accesses.min"] = minAcc
	return s
}
