package main

import (
	"fmt"

	verifiedft "repro"
)

// The online kernels are concurrent programs written against the public
// Runtime, run once with a detector attached and once without. Both use 16
// logical threads, the paper's JavaGrande setting: it fixes the clock
// width, not the number of OS threads (GOMAXPROCS is pinned separately).

const kernelThreads = 16

// eventCount is what a kernel run issued, known by construction.
type eventCount struct{ access, sync uint64 }

func (c eventCount) total() uint64 { return c.access + c.sync }

// kernel is one online workload program.
type kernel struct {
	// run executes the program on rt. The seed picks strides and stripes;
	// size scales the work. It returns an error if the program's own
	// result is wrong (the kernels are deterministic in what they
	// compute, if not in how their threads interleave).
	run func(rt *verifiedft.Runtime, seed uint64, size int, plant bool) (eventCount, []verifiedft.VarID, error)
	// size is the full-scale problem size; quick runs divide it by 10.
	size int
	// vars is how many variables the kernel touches: the shadow table's
	// population.
	vars int
}

// plantRace makes threads 2k and 2k+1 write planted variable k with nothing
// ordering them: siblings between fork and join, on dedicated variables.
// Called first thing in each worker; it returns the accesses it issued.
func plantRace(planted *verifiedft.Array, plant bool, w *verifiedft.Thread, id int) uint64 {
	if !plant {
		return 0
	}
	planted.Store(w, id/2, int64(id))
	return 1
}

func plantedIDs(planted *verifiedft.Array, plant bool) []verifiedft.VarID {
	if !plant {
		return nil
	}
	ids := make([]verifiedft.VarID, numPlanted)
	for k := range ids {
		ids[k] = planted.ID(k)
	}
	return ids
}

// readSharedTable is sized so that the table's shadow state — a 16-entry
// read vector per entry once it is read-shared — stays within a core's
// private cache: what is timed is the detector's instruction path, not the
// host's shared last-level cache, which other tenants fill and empty.
const readSharedTable = 4096

// readSharedKernel is online-readshared: 16 threads sweep a table main
// filled before forking them and accumulate into private variables, with
// no synchronization in the loop. After a thread's first sweep every table
// read repeats within one epoch, the [Read Shared Same Epoch] case v2 made
// lock-free. size is the number of sweeps per thread.
var readSharedKernel = kernel{size: 192, vars: readSharedTable + kernelThreads + numPlanted, run: func(rt *verifiedft.Runtime, seed uint64, sweeps int, plant bool) (eventCount, []verifiedft.VarID, error) {
	main := rt.Main()
	table := rt.NewArray(readSharedTable)
	acc := rt.NewArray(kernelThreads)
	planted := rt.NewArray(numPlanted)
	var want int64
	for i := 0; i < readSharedTable; i++ {
		v := int64(i%251) + 1
		table.Store(main, i, v)
		want += v
	}
	var counts [kernelThreads]uint64
	main.Parallel(kernelThreads, func(w *verifiedft.Thread, id int) {
		n := plantRace(planted, plant, w, id)
		r := newRNG(seed + uint64(id))
		var sum int64
		for s := 0; s < sweeps; s++ {
			// Each sweep starts somewhere else and visits every entry once,
			// in order: the locality of a real table scan.
			i := r.intn(readSharedTable)
			for k := 0; k < readSharedTable; k++ {
				sum += table.Load(w, i)
				i = (i + 1) % readSharedTable
				if k%16 == 15 {
					acc.Store(w, id, sum)
					n++
				}
			}
			n += readSharedTable
		}
		counts[id] = n
	})
	ec := eventCount{access: readSharedTable, sync: 2 * kernelThreads}
	for id := 0; id < kernelThreads; id++ {
		ec.access += counts[id]
		if got := acc.Load(main, id); got != want*int64(sweeps) {
			return ec, nil, fmt.Errorf("readshared: thread %d accumulated %d, want %d", id, got, want*int64(sweeps))
		}
	}
	ec.access += kernelThreads
	return ec, plantedIDs(planted, plant), nil
}}

const (
	syncDenseVars    = 4096
	syncDenseStripes = 256
	syncDenseHelper  = 4096 // moves between helper fork/joins
)

// syncDenseKernel is online-syncdense: 16 threads move value between
// pairs of variables of one stripe under that stripe's mutex — one sync
// event per two accesses, and the previous accessor of a variable is
// usually another thread — and fork and join a short-lived helper every
// 4,096 moves. The same-epoch fast paths rarely fire; [Read/Write
// Exclusive], acquire/release joins and the clocks do the work. size is
// the number of moves per thread.
var syncDenseKernel = kernel{size: 28000, vars: syncDenseVars + numPlanted, run: func(rt *verifiedft.Runtime, seed uint64, moves int, plant bool) (eventCount, []verifiedft.VarID, error) {
	main := rt.Main()
	vars := rt.NewArray(syncDenseVars)
	planted := rt.NewArray(numPlanted)
	locks := make([]*verifiedft.Mutex, syncDenseStripes)
	for i := range locks {
		locks[i] = rt.NewMutex()
	}
	for i := 0; i < syncDenseVars; i++ {
		vars.Store(main, i, 100)
	}
	move := func(w *verifiedft.Thread, word uint64) {
		s := int(word % syncDenseStripes)
		const perStripe = syncDenseVars / syncDenseStripes
		i, j := int(word>>8%perStripe), int(word>>16%perStripe)
		if i == j {
			j = (j + 1) % perStripe
		}
		a, b := s+syncDenseStripes*i, s+syncDenseStripes*j
		locks[s].Lock(w)
		va, vb := vars.Load(w, a), vars.Load(w, b)
		vars.Store(w, a, va-1)
		vars.Store(w, b, vb+1)
		locks[s].Unlock(w)
	}
	var counts [kernelThreads]eventCount
	main.Parallel(kernelThreads, func(w *verifiedft.Thread, id int) {
		c := eventCount{access: plantRace(planted, plant, w, id)}
		r := newRNG(seed + uint64(id))
		for m := 0; m < moves; m++ {
			move(w, r.next())
			if m%syncDenseHelper == syncDenseHelper-1 {
				word := r.next()
				w.Join(w.Go(func(h *verifiedft.Thread) { move(h, word) }))
				c.access, c.sync = c.access+4, c.sync+4
			}
		}
		c.access, c.sync = c.access+4*uint64(moves), c.sync+2*uint64(moves)
		counts[id] = c
	})
	ec := eventCount{access: syncDenseVars, sync: 2 * kernelThreads}
	for _, c := range counts {
		ec.access += c.access
		ec.sync += c.sync
	}
	var sum int64
	for i := 0; i < syncDenseVars; i++ {
		sum += vars.Load(main, i)
	}
	ec.access += syncDenseVars
	if sum != 100*syncDenseVars {
		return ec, nil, fmt.Errorf("syncdense: total %d, want %d (a move was lost)", sum, 100*syncDenseVars)
	}
	return ec, plantedIDs(planted, plant), nil
}}
