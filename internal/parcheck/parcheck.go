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
// preserves — through the Fig. 2 access-rule kernel (core.StepRead and
// core.StepWrite, the same body core's concurrent variants wrap) against
// the precomputed timestamps. Phase 2 overlaps phase 1: workers drain
// their queues while the prepass is still streaming.
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
//
// The sharded engine is one machine: the epoch state the five precise
// epoch variants share. djit and eraser have no such state to shard, so
// Check and CheckTrace answer them by running core's own sequential
// detector over the same validated, lowered stream on the calling
// goroutine, behind a first-touch dense renumbering of variable ids so its
// flat shadow tables stay proportional to the variables the trace names —
// identical reports by construction (see checkSequential).
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
	// five precise epoch variants are sharded; djit and eraser run
	// core's sequential detector on the calling goroutine, Workers
	// notwithstanding.
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
	priorRead bool
	maxPerVar int

	vars varTable[varState]

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

// runBatch replays one batch. Unfused records (the overwhelmingly common
// case on run-free traces) call step directly: this loop is the workers'
// entire hot path, and an extra call layer per access is measurable on
// the Table-1 workloads.
func (w *shardWorker) runBatch(batch []access) {
	for _, a := range batch {
		w.accesses += uint64(a.n)
		if a.n == 1 {
			w.step(a, a.idx, a.pattern&1 != 0)
		} else {
			w.runAccess(a)
		}
	}
}

// threadState is one thread's prepass context.
type threadState struct {
	vc *vc.VC

	// lastRaw/lastInterned memoize the interning of the thread's current
	// snapshot so the intern table is consulted once per clock change,
	// not once per access.
	lastRaw      *vc.Frozen
	lastInterned *vc.Frozen
}

// Check streams the lowered core-language trace from src through the
// two-phase parallel checker and returns the same report list the
// sequential replay of the selected variant would produce. src must
// already be validated and desugared (the CheckSource pipeline); on a
// stream error the error is returned and all reports are discarded,
// matching the sequential contract.
func Check(src trace.Source, opts Options) ([]core.Report, error) {
	return run(opts, func(emit func(trace.Op)) error { return stream(src, emit) })
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
	return run(opts, func(emit func(trace.Op)) error { return streamTrace(tr, ext, opts.Variant, emit) })
}

// run is the shared engine: feed pushes the validated, lowered stream
// into emit, one operation at a time, in the calling goroutine. For the
// sharded variants emit is the prepass (prepassState.dispatch) with the
// shard workers behind it, followed by the merge; for djit and eraser it
// is core's sequential detector.
func run(opts Options, feed func(emit func(trace.Op)) error) ([]core.Report, error) {
	if opts.Variant == "" {
		opts.Variant = "vft-v2"
	}
	vs, err := specFor(opts.Variant)
	if err != nil {
		return nil, err
	}
	if vs.sequential {
		return checkSequential(opts, feed)
	}
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
		ws[i] = &shardWorker{
			priorRead: vs.priorRead,
			maxPerVar: opts.MaxReportsPerVar,
			vars:      newVarTable[varState](workers, opts.Vars),
		}
		wg.Add(1)
		go func(w *shardWorker, ch <-chan []access) {
			defer wg.Done()
			w.run(ch, pool)
		}(ws[i], chans[i])
	}

	// Phase 1: the sync prepass, in the calling goroutine.
	p := &prepassState{
		varFilter: newVarFilter(opts.Sampling, opts.Vars),
		joinInc:   vs.joinInc,
		intern:    vc.NewInterner(),
		threads:   make([]*threadState, 0, opts.Threads),
		locks:     make([]*vc.Frozen, 0, opts.Locks),
		batches:   make([][]access, workers),
		chans:     chans,
		pool:      pool,
		nWorkers:  workers,
		shardMask: func() int {
			if workers&(workers-1) == 0 {
				return workers - 1
			}
			return -1
		}(),
	}
	streamErr := feed(p.dispatch)

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
		r.Detector = opts.Variant
		r.Seq = i
		reports = append(reports, r)
	}

	if opts.Metrics != nil || opts.StatsSink != nil {
		opts.publish(p.stats(ws, uint64(total)))
	}
	return reports, nil
}

// publish hands a finished run's snapshot to the configured consumers.
func (o Options) publish(snap obs.Snapshot) {
	if o.Metrics != nil {
		o.Metrics.RegisterSource("parcheck", snap.Source())
	}
	if o.StatsSink != nil {
		o.StatsSink(snap)
	}
}

// checkSequential is the djit/eraser arm: a fresh core detector consumes
// the stream on the calling goroutine, so the reports are the sequential
// replay's by construction. Two things sit in front of it. The sampling
// filter is the prepass's own (the same pure (seed, var) decisions, the
// same bounded cache), so a sampled run is the precise run restricted to
// the sampled variables, as everywhere else. And admitted variables are
// renumbered densely in first-touch order — the detectors never look at a
// variable's id, only at its state, and reports are mapped back — because
// core's shadow tables are flat arrays indexed by id: without it one access
// to x2000000000 in a 40-byte upload asks for gigabytes. The snapshot is
// the detector's own Stats plus the prepass's ops.* and sampling.* keys.
func checkSequential(opts Options, feed func(emit func(trace.Op)) error) ([]core.Report, error) {
	// No Vars hint: it bounds the largest id, not the number of distinct
	// variables, and core's tables initialize every hinted entry eagerly.
	d, err := core.New(opts.Variant, core.Config{
		Threads: opts.Threads, Locks: opts.Locks,
		MaxReportsPerVar: opts.MaxReportsPerVar,
	})
	if err != nil {
		return nil, err
	}
	filter := newVarFilter(opts.Sampling, opts.Vars)
	ids := newVarTable[trace.Var](1, opts.Vars) // x -> dense id + 1; 0 = unseen
	var orig []trace.Var                        // dense id -> x
	var ops, accesses, syncs uint64
	err = feed(func(op trace.Op) {
		ops++
		if op.Kind != trace.Read && op.Kind != trace.Write {
			syncs++
		} else {
			if filter.sampler != nil && !filter.admit(op.X, op.Kind == trace.Write) {
				return
			}
			accesses++
			id := ids.get(op.X)
			if *id == 0 {
				orig = append(orig, op.X)
				*id = trace.Var(len(orig))
			}
			op.X = *id - 1
		}
		core.Dispatch(d, op)
	})
	if err != nil {
		return nil, err
	}
	reports := d.Reports()
	for i := range reports {
		reports[i].X = orig[reports[i].X]
	}
	if opts.Metrics != nil || opts.StatsSink != nil {
		snap := d.(core.StatsSource).Stats()
		snap.Counters["ops.total"] = ops
		snap.Counters["ops.access"] = accesses
		snap.Counters["ops.sync"] = syncs
		filter.addStats(snap)
		snap.Gauges["workers"] = 1
		opts.publish(snap)
	}
	return reports, nil
}

// varFilter is the per-variable sampling tier in front of either engine:
// the policy plus its decision cache (0 undecided, 1 sampled, 2
// suppressed). The cache is plain bytes because the stream is consumed
// serially — the hot check is one slice load and a compare — in the same
// bounded-dense-plus-spill table the shards use, so a sparse id costs a
// map entry, not a slice of its magnitude.
type varFilter struct {
	sampler   *sample.Policy // nil: every access is admitted
	decisions varTable[uint8]

	suppressedReads, suppressedWrites uint64
	sampledVars, suppressedVars       uint64
}

func newVarFilter(pol *sample.Policy, vars int) varFilter {
	f := varFilter{sampler: pol}
	if pol != nil {
		f.decisions = newVarTable[uint8](1, vars)
	}
	return f
}

// admit reports whether an access to x is under analysis, counting it as
// suppressed when not. The policy hash is consulted only on a variable's
// first access. Callers test f.sampler != nil first.
func (f *varFilter) admit(x trace.Var, write bool) bool {
	d := f.decisions.get(x)
	if *d == 0 {
		if f.sampler.Sampled(x) {
			*d = 1
			f.sampledVars++
		} else {
			*d = 2
			f.suppressedVars++
		}
	}
	if *d == 1 {
		return true
	}
	if write {
		f.suppressedWrites++
	} else {
		f.suppressedReads++
	}
	return false
}

// addStats records the tier's sampling.* accounting, if it is on.
func (f *varFilter) addStats(s obs.Snapshot) {
	if f.sampler == nil {
		return
	}
	s.Counters["sampling.suppressed_reads"] = f.suppressedReads
	s.Counters["sampling.suppressed_writes"] = f.suppressedWrites
	s.Gauges["sampling.vars.sampled"] = f.sampledVars
	s.Gauges["sampling.vars.suppressed"] = f.suppressedVars
	s.Gauges["sampling.rate_ppm"] = core.RatePPM(f.sampler.Rate)
	if total := f.sampledVars + f.suppressedVars; total > 0 {
		s.Gauges["sampling.effective_rate_ppm"] = f.sampledVars * 1_000_000 / total
	}
}

// prepassState is the phase-1 streaming state.
type prepassState struct {
	varFilter // the optional sampling tier

	joinInc bool
	intern  *vc.Interner

	threads []*threadState
	locks   []*vc.Frozen // release clocks by lowered lock id

	// last points at the most recently appended access record — the open
	// fused run: an adjacent same-thread read/write of the same variable
	// bumps its n and write bitmask in place instead of appending a new
	// record. The pointer is stable because batch slices come from the
	// pool at their full fixed capacity and are never reallocated. It is
	// cleared by anything that ends a run — a sync operation (the next
	// access needs a fresh stamp), or the batch being handed to its
	// worker. The first op's eager clock stamp covers the whole run
	// because nothing at all separates the run's ops, so the thread's
	// clock is identical at every one.
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
}

func (p *prepassState) thread(t epoch.Tid) *threadState {
	for int(t) >= len(p.threads) {
		p.threads = append(p.threads, nil)
	}
	ts := p.threads[t]
	if ts == nil {
		// Mirror core.newThreadState: the clock starts at inc_t(⊥V).
		ts = &threadState{vc: vc.New()}
		ts.vc.Inc(t)
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
	if p.sampler != nil && !p.admit(x, write) {
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
	a := access{idx: idx, t: t, x: x, n: 1, clock: p.stamp(p.thread(t))}
	if write {
		a.pattern = 1
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
// [Acquire]/[Release]/[Fork]/[Join] rules. They take already-lowered lock
// ids.

func (p *prepassState) acquire(t epoch.Tid, m trace.Lock) {
	// [Acquire]: St.V := St.V ⊔ Sm.V.
	p.thread(t).vc.JoinFrozen(p.lock(m))
}

func (p *prepassState) release(t epoch.Tid, m trace.Lock) {
	// [Release]: Sm.V := St.V; St.V := inc_t(St.V).
	ts := p.thread(t)
	p.setLock(m, p.stamp(ts))
	ts.vc.Inc(t)
}

func (p *prepassState) fork(t, u epoch.Tid) {
	// [Fork]: Su.V := Su.V ⊔ St.V; St.V := inc_t(St.V).
	st, su := p.thread(t), p.thread(u)
	su.vc.Join(st.vc)
	st.vc.Inc(t)
}

func (p *prepassState) join(t, u epoch.Tid) {
	// [Join]: St.V := St.V ⊔ Su.V, plus the original FastTrack Su.V(u)
	// increment for the FT baselines.
	st, su := p.thread(t), p.thread(u)
	st.vc.Join(su.vc)
	if p.joinInc {
		su.vc.Inc(u)
	}
}

// dispatch is the prepass's one op switch: it consumes the next operation
// of the lowered stream, whichever entry point produced it. p.ops is the
// op's position in that stream, so the merge order of reports is
// identical for Check and CheckTrace.
func (p *prepassState) dispatch(op trace.Op) {
	switch op.Kind {
	case trace.Read:
		p.emitAccess(int(p.ops), op.T, op.X, false)
	case trace.Write:
		p.emitAccess(int(p.ops), op.T, op.X, true)
	default:
		p.last = nil // a sync edge ends the open fused run
		p.syncs++
		switch op.Kind {
		case trace.Acquire:
			p.acquire(op.T, op.M)
		case trace.Release:
			p.release(op.T, op.M)
		case trace.Fork:
			p.fork(op.T, op.U)
		case trace.Join:
			p.join(op.T, op.U)
		}
	}
	p.ops++
}

// stream pulls an already validated and lowered stream to EOF (or error).
func stream(src trace.Source, emit func(trace.Op)) error {
	for idx := 0; ; idx++ {
		op, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !op.Kind.IsCore() {
			return &trace.InfeasibleError{Index: idx, Op: op, Msg: "extended op reached parcheck (desugar first)"}
		}
		emit(op)
	}
}

// streamTrace is the fused slice feed: validation and lowering run inline
// per operation, so the serial phase costs a few slice loads per op
// instead of three interface dispatches plus pipeline bookkeeping.
// Semantics parity with the streaming pipeline, piece by piece:
//
//   - validation sees the raw (pre-lowering) ops in order, exactly like
//     ValidateSource in front of DesugarSource, so an infeasible trace
//     produces the identical error at the identical raw index;
//   - the lowering is the shared trace.Lowerer in its parity numbering
//     (real lock m → 2m, k-th pseudo-lock → 2k+1, first-use allocation
//     order) — the same code DesugarSource runs, dispatching into emit
//     instead of a queue, so the two paths cannot drift.
func streamTrace(tr trace.Trace, ext *trace.Extensions, variant string, emit func(trace.Op)) error {
	v := trace.NewValidator()
	v.Ext = ext
	v.MaxTid = core.MaxTid(variant)
	low := trace.NewParityLowerer(ext)
	for _, op := range tr {
		if err := v.Check(op); err != nil {
			return err
		}
		low.Lower(op, emit)
	}
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

	p.addStats(s)

	s.Gauges["workers"] = uint64(len(ws))
	s.Gauges["intern.distinct"] = uint64(p.intern.Len())
	s.Gauges["queue.max_depth"] = uint64(p.maxQueueDepth)
	s.Gauges["shard.accesses.max"] = maxAcc
	s.Gauges["shard.accesses.min"] = minAcc
	return s
}
