package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Extensions carries the out-of-band parameters of the extended trace
// language — facts about the program the trace itself cannot express. A
// nil *Extensions is valid everywhere one is accepted and means "all
// defaults": every barrier has two parties and every channel is
// unbuffered.
//
// The lowering (Desugar, DesugarSource, parcheck.CheckSource) and the
// feasibility validator both consult the same Extensions; feeding a trace
// through validation and lowering with different Extensions values is a
// caller bug, as it can make the validator admit a trace the lowering
// mis-shapes (e.g. a send the validator thinks completes into a buffer
// slot while the lowering treats the channel as unbuffered).
type Extensions struct {
	// BarrierParties is the participant count per barrier id; absent
	// entries (and entries < 1) default to 2.
	BarrierParties map[Lock]int

	// ChanCapacity is the buffer capacity per channel id; absent entries
	// (and entries < 0) default to 0, an unbuffered channel.
	ChanCapacity map[Lock]int
}

// Parties returns the participant count of barrier b (default 2). Safe on
// a nil receiver.
func (e *Extensions) Parties(b Lock) int {
	if e == nil {
		return 2
	}
	if n := e.BarrierParties[b]; n > 0 {
		return n
	}
	return 2
}

// Capacity returns the buffer capacity of channel c (default 0,
// unbuffered). Safe on a nil receiver.
func (e *Extensions) Capacity(c Lock) int {
	if e == nil {
		return 0
	}
	if n := e.ChanCapacity[c]; n > 0 {
		return n
	}
	return 0
}

// ParseIDValues parses the textual form of an Extensions map, shared by
// the CLI flags and the server's query parameters: comma-separated
// id:value pairs ("0:4,2:1") with ids in [0, math.MaxInt32] — the id space
// of a trace — and values in [min, math.MaxInt32]. name labels the errors.
// Empty input yields nil (all defaults).
func ParseIDValues(s, name string, min int) (map[Lock]int, error) {
	if s == "" {
		return nil, nil
	}
	m := map[Lock]int{}
	for _, pair := range strings.Split(s, ",") {
		id, val, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("%s: %q is not an id:value pair", name, pair)
		}
		i, err := parseID(id, "id")
		if err != nil {
			return nil, fmt.Errorf("%s: bad id %q", name, id)
		}
		v, err := parseID(val, "value")
		if err != nil || int(v) < min {
			return nil, fmt.Errorf("%s: bad value %q for id %d (min %d)", name, val, i, min)
		}
		m[Lock(i)] = int(v)
	}
	return m, nil
}

// parseID parses a decimal id in [0, math.MaxInt32]; what labels the
// errors.
func parseID(s, what string) (int32, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative %s %d", what, n)
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("%s %d exceeds %d", what, n, math.MaxInt32)
	}
	return int32(n), nil
}
