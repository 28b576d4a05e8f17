package main

import "time"

// The host this benchmark runs on lends its cores at a speed that changes:
// for stretches of seconds to minutes everything — this process, the
// server, the Go toolchain — runs some 20% faster or 30% slower than the
// minute before, whatever the program under test does (README.md,
// Steadiness). A run that falls into one stretch and a run that falls into
// another differ by more than any bound could allow, so an end-to-end
// timing is taken between two timings of a fixed reference loop and scaled
// to the speed the loop says the host had at that moment. What is reported
// is the time the verdict would have taken at the nominal speed. (One
// timing is exempt, the server's upload latency: see serverWorkload.measure.)

const (
	probeTable = 4096    // uint32 entries, 16 KiB: first-level cache
	probeSteps = 400_000 // about 2.75 ms at the nominal speed

	// probeNominal is the reference loop's duration at the speed the
	// baseline host runs at most of the time. Only its constancy matters:
	// it sets the scale of the calibrated numbers, not their ratios.
	probeNominal = 2750 * time.Microsecond
)

var probeData = func() []uint32 {
	t := make([]uint32, probeTable)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

var probeSink uint32

// probeOnce times the reference loop: xorshift steps, a dependent load
// from the table and a data-dependent branch per step — integer work of
// the kind the detector does, touching nothing outside the core.
func probeOnce() time.Duration {
	t0 := time.Now()
	x, acc := uint32(88172645), uint32(0)
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := probeData[(x^acc)%probeTable]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
	}
	probeSink += acc
	return time.Since(t0)
}

// hostProbe is how the reference loop is timed on either side of an
// operation: the fastest of runs consecutive timings.
type hostProbe struct{ runs int }

var (
	// inProcessProbe suits an operation this process computes itself: the
	// core never idles between the loop and the work, one timing will do.
	inProcessProbe = hostProbe{runs: 1}
	// childProbe suits an operation this process sleeps through while a
	// child works. For some 8 ms after it wakes the loop reads up to 35%
	// slow (2.8, 3.6, 3.3, then a settled 2.75 ms), so the loop runs four
	// times and the settled timing is kept.
	childProbe = hostProbe{runs: 4}
)

func (p hostProbe) once() time.Duration {
	best := probeOnce()
	for i := 1; i < p.runs; i++ {
		if d := probeOnce(); d < best {
			best = d
		}
	}
	return best
}

// speedAround runs op between two timings of the reference loop and
// returns the host's speed around op as a multiple of the nominal speed
// (above 1: faster). A wall time measured inside op, multiplied by it, is
// the time at the nominal speed.
func (p hostProbe) speedAround(op func()) float64 {
	before := p.once()
	op()
	after := p.once()
	return float64(probeNominal) / (float64(before+after) / 2)
}
