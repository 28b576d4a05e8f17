package vc

// The three names below have one caller each, bench/probes.go (frozen with
// the benchmark); delete with the next `benchmark` PR.

// Clock is *VC; caller: bench/probes.go.
type Clock = *VC

// Impl is a zero-size placeholder; caller: bench/probes.go, through
// core.Config.ClockImpl.
type Impl struct{}

// NewClock returns New(); caller: bench/probes.go.
func NewClock(Impl, any) Clock { return New() }
