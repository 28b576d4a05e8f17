package main

import (
	"bytes"
	"compress/gzip"
	"fmt"

	verifiedft "repro"
	"repro/internal/epoch"
	"repro/internal/trace"
)

// The trace generators are owned by the benchmark: a later change to
// trace.Generate or internal/workloads cannot silently change the inputs.
// Every generator is a pure function of (seed, size, plant) and emits a
// feasible trace whose only races are, by construction, the planted ones.

// rng is splitmix64.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// numPlanted is how many racy variables a planted input carries.
const numPlanted = 8

// genInfo is what a generator knows about the trace it emitted.
type genInfo struct {
	ops      int
	planted  []trace.Var        // the known answer: exactly these variables race
	chanCaps map[trace.Lock]int // buffer capacities the checker must be told
}

// emitter counts ops on their way to a sink and plants the races: the k-th
// planted pair goes out once (k+1)/(numPlanted+1) of the target size has
// been emitted, as two adjacent writes by distinct sibling workers. No
// operation separates the two writes, so no chain of synchronization can
// order them: they race whatever the surrounding trace does.
type emitter struct {
	sink    func(trace.Op)
	n       int
	target  int
	plant   bool
	base    trace.Var // first planted variable id, above every other id
	workers int       // worker tids are 1..workers-1
	next    int
	r       *rng
}

func (e *emitter) emit(op trace.Op) {
	e.sink(op)
	e.n++
}

// maybePlant is called between same-thread groups, never inside one.
func (e *emitter) maybePlant() {
	for e.plant && e.next < numPlanted && e.n >= (e.next+1)*e.target/(numPlanted+1) {
		u := 1 + e.r.intn(e.workers-1)
		v := 1 + e.r.intn(e.workers-2)
		if v >= u {
			v++
		}
		x := e.base + trace.Var(e.next)
		e.emit(trace.Wr(epoch.Tid(u), x))
		e.emit(trace.Wr(epoch.Tid(v), x))
		e.next++
	}
}

func (e *emitter) info(caps map[trace.Lock]int) genInfo {
	gi := genInfo{ops: e.n, chanCaps: caps}
	for k := 0; k < e.next; k++ {
		gi.planted = append(gi.planted, e.base+trace.Var(k))
	}
	return gi
}

// forkAll and joinAll bracket a trace whose workers are tids 1..threads-1.
func (e *emitter) forkAll(threads int) {
	for t := 1; t < threads; t++ {
		e.emit(trace.ForkOp(0, epoch.Tid(t)))
	}
}

func (e *emitter) joinAll(threads int) {
	for t := 1; t < threads; t++ {
		e.emit(trace.JoinOp(0, epoch.Tid(t)))
	}
}

// blockShape parameterizes genBlocks.
type blockShape struct {
	threads   int
	shared    int // entries of the main-initialized read-shared table
	private   int // variables per thread-private block
	runMin    int // same-thread run length bounds (accesses)
	runMax    int
	lockEvery int // one lock-protected counter update per this many runs
	counters  int
}

var (
	// accessDenseShape is offline-accessdense: 1,024-access same-thread
	// runs, sync far below 0.5% of ops — decode, validate and dispatch per
	// op dominate, and run fusion and the sharded checker see their best
	// case.
	accessDenseShape = blockShape{threads: 16, shared: 4096, private: 2048,
		runMin: 1024, runMax: 1024, lockEvery: 8, counters: 16}
	// mixedShape is one server-mixed upload: a small CI-job-sized trace
	// with short runs and regular lock traffic.
	mixedShape = blockShape{threads: 8, shared: 512, private: 1024,
		runMin: 8, runMax: 64, lockEvery: 4, counters: 8}
)

// genBlocks emits ≈n ops of block-structured traffic: main fills a table,
// forks the workers, and then threads take turns performing runs of
// accesses to their own private block mixed with reads of the table (one
// access in four; half the private visits are a read then a write of the
// same variable), with an occasional counter update under that counter's
// lock. Private blocks have one accessor, the table is written only before
// the forks, and a counter is only touched under its own lock, so the
// unplanted trace is race-free.
func genBlocks(seed uint64, n int, plant bool, sh blockShape, sink func(trace.Op)) genInfo {
	r := newRNG(seed)
	privBase := sh.shared
	ctrBase := privBase + sh.threads*sh.private
	e := &emitter{sink: sink, target: n, plant: plant, workers: sh.threads, r: r,
		base: trace.Var(ctrBase + sh.counters)}

	for i := 0; i < sh.shared; i++ {
		e.emit(trace.Wr(0, trace.Var(i)))
	}
	e.forkAll(sh.threads)
	pos := make([]int, sh.threads)
	for t := 0; t < sh.threads; t++ {
		pos[t] = r.intn(sh.private)
		// Every thread acts at least once, so every join is feasible.
		e.emit(trace.Rd(epoch.Tid(t), trace.Var(privBase+t*sh.private+pos[t])))
	}

	tail := sh.threads + 2*numPlanted
	for run := 0; e.n < n-tail; run++ {
		t := r.intn(sh.threads)
		tid := epoch.Tid(t)
		length := sh.runMin + r.intn(sh.runMax-sh.runMin+1)
		for i := 0; i < length && e.n < n-tail; i++ {
			w := r.next()
			if w&3 == 0 {
				e.emit(trace.Rd(tid, trace.Var(int(w>>8)%sh.shared)))
				continue
			}
			pos[t] = (pos[t] + 1) % sh.private
			x := trace.Var(privBase + t*sh.private + pos[t])
			e.emit(trace.Rd(tid, x))
			if w&4 == 0 { // half the visits update in place: x = f(x)
				e.emit(trace.Wr(tid, x))
				i++
			}
		}
		if run%sh.lockEvery == 0 {
			c := r.intn(sh.counters)
			e.emit(trace.Acq(tid, trace.Lock(c)))
			e.emit(trace.Rd(tid, trace.Var(ctrBase+c)))
			e.emit(trace.Wr(tid, trace.Var(ctrBase+c)))
			e.emit(trace.Rel(tid, trace.Lock(c)))
		}
		e.maybePlant()
	}
	e.target = e.n // flush any pair still due
	e.maybePlant()
	e.joinAll(sh.threads)
	return e.info(nil)
}

// Sync-dense shape constants (offline-syncdense).
const (
	sdThreads = 32
	sdStripes = 64
	sdVars    = 4096
	sdAtomics = 16
	sdChans   = 8
	sdChanCap = 4
)

// genSyncDense emits ≈n ops in which every access is wrapped in an
// acquire/release of its variable's stripe lock, the acting thread changes
// every 1–4 ops, and one op in ten is a format-v2 Go-sync kind (buffered
// channel send/recv, atomic load/store/RMW). The validator, the Lowerer
// and clock joins dominate; the last accessor of a variable is almost
// always another thread. A variable is only touched under its stripe lock,
// so the unplanted trace is race-free.
func genSyncDense(seed uint64, n int, plant bool, sink func(trace.Op)) genInfo {
	r := newRNG(seed)
	e := &emitter{sink: sink, target: n, plant: plant, workers: sdThreads, r: r,
		base: trace.Var(sdVars)}
	caps := make(map[trace.Lock]int, sdChans)
	for c := 0; c < sdChans; c++ {
		caps[trace.Lock(c)] = sdChanCap
	}

	const (
		idle    = iota // holds nothing
		locked         // holds a stripe lock, access still to come
		touched        // holds a stripe lock, access done
	)
	state := make([]uint8, sdThreads)
	held := make([]int, sdThreads)   // stripe held by thread t
	holder := make([]int, sdStripes) // thread holding stripe m, or -1
	buffered := make([]int, sdChans) // values in each channel's buffer
	for m := range holder {
		holder[m] = -1
	}

	// step advances thread t by one op.
	step := func(t int) {
		tid := epoch.Tid(t)
		switch state[t] {
		case idle:
			w := r.next()
			if w&3 == 0 { // a quarter of idle steps: 10% of all ops
				c := int(w>>8) % sdChans
				a := trace.Var(int(w>>16) % sdAtomics)
				switch (w >> 4) & 3 {
				case 0:
					if buffered[c] < sdChanCap {
						buffered[c]++
						e.emit(trace.SendOp(tid, trace.Lock(c)))
						return
					}
					fallthrough
				case 1:
					if buffered[c] > 0 {
						buffered[c]--
						e.emit(trace.RecvOp(tid, trace.Lock(c)))
						return
					}
					e.emit(trace.ARMW(tid, a))
				case 2:
					e.emit(trace.ALoad(tid, a))
				default:
					e.emit(trace.AStore(tid, a))
				}
				return
			}
			m := int(w>>8) % sdStripes
			for holder[m] >= 0 { // at most sdThreads < sdStripes are held
				m = (m + 1) % sdStripes
			}
			holder[m], held[t], state[t] = t, m, locked
			e.emit(trace.Acq(tid, trace.Lock(m)))
		case locked:
			w := r.next()
			x := trace.Var(held[t] + sdStripes*(int(w>>8)%(sdVars/sdStripes)))
			if w&1 == 0 {
				e.emit(trace.Rd(tid, x))
			} else {
				e.emit(trace.Wr(tid, x))
			}
			state[t] = touched
		case touched:
			e.emit(trace.Rel(tid, trace.Lock(held[t])))
			holder[held[t]], state[t] = -1, idle
		}
	}

	e.forkAll(sdThreads)
	for t := 0; t < sdThreads; t++ {
		step(t) // every thread acts at least once
	}
	tail := 3*sdThreads + 2*numPlanted
	for e.n < n-tail {
		t := r.intn(sdThreads)
		for k := 1 + r.intn(4); k > 0 && e.n < n-tail; k-- {
			step(t)
		}
		e.maybePlant()
	}
	e.target = e.n
	e.maybePlant()
	for t := 0; t < sdThreads; t++ {
		for state[t] != idle {
			step(t)
		}
	}
	e.joinAll(sdThreads)
	return e.info(caps)
}

// offlineInput is one encoded trace with its known answer.
type offlineInput struct {
	data []byte
	info genInfo
}

// checkOptions are the options the checker needs to read in.data at all
// (channel capacities); callers append the path under test.
func (in *offlineInput) checkOptions() []verifiedft.CheckOption {
	if len(in.info.chanCaps) == 0 {
		return nil
	}
	return []verifiedft.CheckOption{verifiedft.WithChanCapacities(in.info.chanCaps)}
}

// encodeBinary streams a generator straight into the default binary
// encoding, so the trace is never materialized: the benchmark process's
// peak RSS is then the checker's, not the generator's.
func encodeBinary(gen func(sink func(trace.Op)) genInfo) (*offlineInput, error) {
	var buf bytes.Buffer
	enc := trace.NewBinaryEncoder(&buf)
	var encErr error
	info := gen(func(op trace.Op) {
		if err := enc.Encode(op); err != nil && encErr == nil {
			encErr = err
		}
	})
	if encErr != nil {
		return nil, fmt.Errorf("encoding generated trace: %w", encErr)
	}
	if err := enc.Flush(); err != nil {
		return nil, fmt.Errorf("encoding generated trace: %w", err)
	}
	return &offlineInput{data: buf.Bytes(), info: info}, nil
}

// collect materializes a generator's trace (small inputs and traced
// probes only).
func collect(gen func(sink func(trace.Op)) genInfo) (trace.Trace, genInfo) {
	var tr trace.Trace
	info := gen(func(op trace.Op) { tr = append(tr, op) })
	return tr, info
}

// Upload encodings of the server-mixed pool.
const (
	encBinary = "binary"
	encGzip   = "gzip"
	encText   = "text"
)

// upload is one pre-encoded server-mixed request body.
type upload struct {
	body     []byte
	encoding string
	tenant   string
	ops      int
	planted  []trace.Var
}

// serverPoolSize is the number of distinct uploads clients cycle through.
const serverPoolSize = 64

// genServerPool builds the server-mixed pool: sizes 2k/20k/200k ops at
// 70/25/5%, encodings binary/gzip/text at 60/30/10%, 8 tenants, and one
// body in ten carrying planted races. Proportions are exact over the pool,
// and the encodings are dealt within each size class — three fifths of the
// pool's ops are in its three largest uploads, and whether those arrive as
// binary or as text decides the pool's cost — so every seed offers the same
// mix of (size, encoding) pairs; the seed decides their order, their
// tenants and what is in them.
func genServerPool(seed uint64, scale int) ([]upload, error) {
	r := newRNG(seed ^ 0x5e7fe7)
	classes := []int{2000, 20000, 200000}
	count := map[int]int{}
	for _, s := range spread(serverPoolSize, r, classes, []int{70, 25, 5}) {
		count[s]++
	}
	var sizes, encs []int
	for _, s := range classes {
		for _, enc := range spread(count[s], r, []int{0, 1, 2}, []int{60, 30, 10}) {
			sizes, encs = append(sizes, s), append(encs, enc)
		}
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
		encs[i], encs[j] = encs[j], encs[i]
	}
	plants := spread(serverPoolSize, r, []int{0, 1}, []int{90, 10})
	names := []string{encBinary, encGzip, encText}

	pool := make([]upload, serverPoolSize)
	for i := range pool {
		tr, info := collect(func(sink func(trace.Op)) genInfo {
			return genBlocks(seed*1000+uint64(i), sizes[i]/scale, plants[i] == 1, mixedShape, sink)
		})
		var buf bytes.Buffer
		var err error
		switch names[encs[i]] {
		case encBinary:
			err = verifiedft.EncodeBinary(&buf, tr)
		case encText:
			err = verifiedft.EncodeText(&buf, tr)
		case encGzip:
			zw := gzip.NewWriter(&buf)
			if err = verifiedft.EncodeBinary(zw, tr); err == nil {
				err = zw.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("encoding upload %d: %w", i, err)
		}
		pool[i] = upload{body: buf.Bytes(), encoding: names[encs[i]],
			tenant: fmt.Sprintf("tenant-%d", i%8), ops: info.ops, planted: info.planted}
	}
	return pool, nil
}

// spread returns n values drawn from vals in the given percentages
// (largest-remainder rounding, at least one of each), in seeded order.
func spread(n int, r *rng, vals, pct []int) []int {
	out := make([]int, 0, n)
	for i, v := range vals {
		k := (n*pct[i] + 50) / 100
		if k == 0 {
			k = 1
		}
		for ; k > 0 && len(out) < n; k-- {
			out = append(out, v)
		}
	}
	for len(out) < n {
		out = append(out, vals[0])
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
