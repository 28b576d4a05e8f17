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
// Every offline check is assembled here, once (see run): a push feed
// (validation and lowering inline, or an already-lowered source) → the
// front stage (sampling on raw variable ids, then first-touch compaction
// of thread, variable and lock ids; see frontStage) → the engine the
// resolved worker count picks. One worker, or djit/eraser, which keep no
// per-variable epoch state to shard, is core's own sequential detector on
// the calling goroutine; two or more workers are the prepass and shards
// above. Both engines see the same compact stream and their reports are
// mapped back the same way, so which one ran is not observable in the
// report list.
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

// Options configures a check.
type Options struct {
	// Variant is the detector variant to emulate (default vft-v2).
	Variant string
	// Workers is the shard worker count; <= 0 means GOMAXPROCS. It picks
	// the engine: one worker is core's sequential detector, two or more
	// are the prepass and shards. djit and eraser run the sequential
	// detector, Workers notwithstanding.
	Workers int
	// MaxReportsPerVar caps race reports per variable (0 = unlimited),
	// with the same semantics as the sequential sink.
	MaxReportsPerVar int
	// Threads, Vars and Locks are table size hints: how many distinct
	// threads, variables and lowered locks to expect (the tables grow on
	// demand). They are counts, not id bounds — the engines see compact
	// ids — and hinted entries are allocated up front.
	Threads, Vars, Locks int
	// Metrics, when non-nil, receives the run's observability. From the
	// sharded engine that is a frozen "parcheck" source after a successful
	// run: shard balance, queue depth, intern hit rate, freeze reuse, and
	// op/report accounting. From the sequential engine it is what an
	// online detector under a registry gives: sampled latency.* histograms
	// while the check runs, and afterwards the detector's counters frozen
	// under the variant name (plus ops.* and, when sampling, sampling.*).
	Metrics *obs.Registry
	// StatsSink, when non-nil, is called once with the same snapshot a
	// Metrics registry would receive. Unlike Metrics — which registers a
	// new frozen source per run and therefore suits one-shot tools — a
	// sink lets a long-running caller (the ingestion service, which checks
	// thousands of uploads per registry lifetime) fold each run's stats
	// into its own accumulators without growing the registry per check.
	StatsSink func(obs.Snapshot)
	// Sampling, when non-nil, enables the per-variable sampling tier:
	// accesses to variables the policy rejects are dropped by the front
	// stage (counted in the stats as sampling.suppressed_*) before they
	// reach either engine. The policy is a pure function of (seed, raw
	// variable id), so every run of one trace drops exactly the same
	// accesses; see internal/sample for the soundness argument.
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

	vars   []varState // indexed by compact variable id / stride
	stride int        // the worker count

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

// CheckSource checks a raw (not yet validated or lowered) stream: the §2
// feasibility validation, under the variant's thread-id ceiling, and the
// extended-op lowering run inline in the loop that pulls src, each lowered
// operation going straight into the check — no stage in between holds a
// queue or costs a virtual Next() hop per operation. ext has
// DesugarSource's meaning (barrier participant counts, channel capacities;
// nil for all defaults), and the lowering is the shared trace.Lowerer in
// its parity numbering, so it matches DesugarSource operation for
// operation. The first infeasible op ends the check with the validator's
// positioned error; on any error all reports are discarded.
func CheckSource(src trace.Source, ext *trace.Extensions, opts Options) ([]core.Report, error) {
	return run(opts, func(emit func(trace.Op)) error {
		v := trace.NewValidator()
		v.Ext = ext
		v.MaxTid = core.MaxTid(opts.Variant)
		low := trace.NewParityLowerer(ext)
		for {
			op, err := src.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := v.Check(op); err != nil {
				return err
			}
			low.Lower(op, emit)
		}
	})
}

// CheckTrace is CheckSource over a materialized trace.
func CheckTrace(tr trace.Trace, ext *trace.Extensions, opts Options) ([]core.Report, error) {
	return CheckSource(tr.Source(), ext, opts)
}

// Check is CheckSource for a stream that is already validated and lowered
// to the core language (an extended op in it is an error).
func Check(src trace.Source, opts Options) ([]core.Report, error) {
	return run(opts, func(emit func(trace.Op)) error { return stream(src, emit) })
}

// run assembles a check: feed pushes the validated, lowered stream, one
// operation at a time in the calling goroutine, into the front stage,
// which hands what it admits to the engine the worker count selects.
func run(opts Options, feed func(emit func(trace.Op)) error) ([]core.Report, error) {
	if opts.Variant == "" {
		opts.Variant = "vft-v2"
	}
	vs, err := specFor(opts.Variant)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	front := &frontStage{sampler: opts.Sampling}
	opts.Vars = core.SampledVars(opts.Sampling, opts.Vars) // only sampled variables reach a table
	var reports []core.Report
	if vs.sequential || workers == 1 {
		reports, err = checkSequential(opts, front, feed)
	} else {
		reports, err = checkSharded(opts, vs, workers, front, feed)
	}
	if err != nil {
		return nil, err
	}
	return front.restore(reports), nil
}

// checkSharded is the engine for two or more workers: the sync prepass
// in the calling goroutine, the shard workers behind it, then the merge.
func checkSharded(opts Options, vs variantSpec, workers int, front *frontStage, feed func(emit func(trace.Op)) error) ([]core.Report, error) {
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
			vars:      make([]varState, opts.Vars/workers+1),
			stride:    workers,
		}
		wg.Add(1)
		go func(w *shardWorker, ch <-chan []access) {
			defer wg.Done()
			w.run(ch, pool)
		}(ws[i], chans[i])
	}

	// Phase 1: the sync prepass, in the calling goroutine.
	p := &prepassState{
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
	front.emit = p.dispatch
	streamErr := feed(front.push)

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
		snap := p.stats(ws, uint64(total))
		front.addStats(snap)
		opts.publish("parcheck", snap)
	}
	return reports, nil
}

// publish hands a finished run's snapshot to the configured consumers.
func (o Options) publish(source string, snap obs.Snapshot) {
	if o.Metrics != nil {
		o.Metrics.RegisterSource(source, snap.Source())
	}
	if o.StatsSink != nil {
		o.StatsSink(snap)
	}
}

// checkSequential is the engine for one worker, and for djit and eraser
// at any worker count: a fresh core detector consumes the stream on the
// calling goroutine. Its flat shadow tables are safe to size from the
// hints and to index directly because the front stage has made every id
// compact. A Metrics registry observes it the way it observes an online
// detector: through the latency sampler while it runs, then the frozen
// counters under the variant's name.
func checkSequential(opts Options, front *frontStage, feed func(emit func(trace.Op)) error) ([]core.Report, error) {
	d, err := core.New(opts.Variant, core.Config{
		Threads: opts.Threads, Vars: opts.Vars, Locks: opts.Locks,
		MaxReportsPerVar: opts.MaxReportsPerVar,
	})
	if err != nil {
		return nil, err
	}
	det := d
	if opts.Metrics != nil {
		det = core.InstrumentLatency(d, opts.Metrics, core.LatencySampleInterval)
	}
	front.emit = func(op trace.Op) { core.Dispatch(det, op) }
	if err := feed(front.push); err != nil {
		return nil, err
	}
	if opts.Metrics != nil || opts.StatsSink != nil {
		// The feed has returned, so the detector is quiescent and its
		// per-thread counters are coherent.
		snap := d.(core.StatsSource).Stats()
		front.addStats(snap)
		snap.Gauges["workers"] = 1
		opts.publish(opts.Variant, snap)
	}
	return d.Reports(), nil
}

// prepassState is the phase-1 streaming state.
type prepassState struct {
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

	ops, batchesSent    uint64 // ops: stream position, the reports' merge key
	fusedRuns, fusedOps uint64
	maxQueueDepth       int
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
// records, which replay identically. (The front stage has already dropped
// unsampled accesses, so one neither ends an open run nor reaches a
// shard, exactly as if the trace had never contained it.)
func (p *prepassState) emitAccess(idx int, t epoch.Tid, x trace.Var, write bool) {
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
// the front stage admits. p.ops is the op's position among those, which
// is all the merge needs to order reports as the sequential sink does.
func (p *prepassState) dispatch(op trace.Op) {
	switch op.Kind {
	case trace.Read:
		p.emitAccess(int(p.ops), op.T, op.X, false)
	case trace.Write:
		p.emitAccess(int(p.ops), op.T, op.X, true)
	default:
		p.last = nil // a sync edge ends the open fused run
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

// stats assembles the sharded engine's observability snapshot (the front
// stage adds ops.* and sampling.*).
func (p *prepassState) stats(ws []*shardWorker, reports uint64) obs.Snapshot {
	s := obs.NewSnapshot()
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

	s.Gauges["workers"] = uint64(len(ws))
	s.Gauges["intern.distinct"] = uint64(p.intern.Len())
	s.Gauges["queue.max_depth"] = uint64(p.maxQueueDepth)
	s.Gauges["shard.accesses.max"] = maxAcc
	s.Gauges["shard.accesses.min"] = minAcc
	return s
}
