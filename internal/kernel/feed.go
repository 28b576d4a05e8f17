package kernel

import (
	"repro/internal/epoch"
	"repro/internal/trace"
)

// Feed is the per-operation work of every check of a raw stream: one
// switch that validates an operation (trace.Validator), lowers it if it is
// a Go-sync or §7 kind (trace.Lowerer in its parity numbering; the six
// core kinds pass), polices the clock ceiling and hands the result on, a
// batch of operations at a time: to the offline check's Front, for a batch
// it decoded, or to the vft-go shim's Machine, for the records the shim
// logged since its last batch. Both are called by their concrete type:
// the switch is on the path of every operation either check admits, and
// on offline-syncdense an interface call there read 2.9% slower than the
// parent where a concrete call read 0.9% (EXPERIMENTS.md E43).
type Feed struct {
	V     *trace.Validator // read its Count and Threads as the stream goes
	low   *trace.Lowerer
	front *Front   // where non-nil, receives what the feed hands on
	m     *Machine // receives it where front is nil

	// maxClock is the clock ceiling of the detector behind the feed where
	// it is below epoch.MaxClock (ft-cas's), and 0 where there is none to
	// police; ticks[o] then counts the increments of the clock of the
	// thread with ordinal o, which starts at 1.
	maxClock uint64
	ticks    []uint64

	pairs []trace.Pair // the lowering's output, reused
}

// NewFeed returns a feed in the initial state of a stream whose channel
// capacities and barrier party counts ext gives (nil for all defaults):
// the validator admits thread ids up to maxTid, and clocks are policed up
// to maxClock (epoch.MaxClock or more: not at all). It hands what it
// admits to front, or, where front is nil, straight to m.
func NewFeed(ext *trace.Extensions, maxTid epoch.Tid, maxClock uint64, front *Front, m *Machine) *Feed {
	v := trace.NewValidator()
	v.Ext = ext
	v.MaxTid = maxTid
	fd := &Feed{V: v, low: trace.NewParityLowerer(ext), front: front, m: m}
	if maxClock < epoch.MaxClock {
		fd.maxClock = maxClock
	}
	return fd
}

// Check steps ops in order and returns the first error, if any.
func (fd *Feed) Check(ops []trace.Op) error {
	for i := range ops {
		if err := fd.Step(ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// Step validates, lowers and hands on op, or on an infeasible op returns
// the validator's positioned error (or the clock ceiling's) and hands on
// nothing. The core kinds pass the Lowerer by (only a real lock's id
// changes), so only the extended kinds reach it.
func (fd *Feed) Step(op trace.Op) error {
	v, front, m := fd.V, fd.front, fd.m
	var err error
	switch op.Kind {
	case trace.Read:
		if err = v.Access(op); err == nil {
			if t := v.Ordinal(op.T); front != nil {
				front.Read(t, op.X)
			} else {
				m.Read(t, op.X)
			}
		}
	case trace.Write:
		if err = v.Access(op); err == nil {
			if t := v.Ordinal(op.T); front != nil {
				front.Write(t, op.X)
			} else {
				m.Write(t, op.X)
			}
		}
	case trace.Acquire:
		if err = v.Acquire(op); err == nil {
			if t, l := v.Ordinal(op.T), fd.low.Real(op.M); front != nil {
				front.Acquire(t, l)
			} else {
				m.Acquire(t, l)
			}
		}
	case trace.Release:
		if err = v.Release(op); err == nil && fd.maxClock != 0 {
			err = fd.tick(op, op.T)
		}
		if err == nil {
			if t, l := v.Ordinal(op.T), fd.low.Real(op.M); front != nil {
				front.Release(t, l)
			} else {
				m.Release(t, l)
			}
		}
	case trace.Fork:
		if err = v.Fork(op); err == nil && fd.maxClock != 0 {
			err = fd.tick(op, op.T)
		}
		if err == nil {
			if t, u := v.Ordinal(op.T), v.Ordinal(op.U); front != nil {
				front.Fork(t, u)
			} else {
				m.Fork(t, u)
			}
		}
	case trace.Join:
		// Under the FT join rule, ft-cas's, a join ticks the joined
		// thread's clock.
		if err = v.Join(op); err == nil && fd.maxClock != 0 {
			err = fd.tick(op, op.U)
		}
		if err == nil {
			if t, u := v.Ordinal(op.T), v.Ordinal(op.U); front != nil {
				front.Join(t, u)
			} else {
				m.Join(t, u)
			}
		}
	case trace.ChanSend, trace.ChanRecv, trace.ChanClose:
		var step trace.ChanStep
		if step, err = v.Chan(op); err == nil {
			fd.pairs = fd.low.AppendChan(fd.pairs[:0], op, step)
			err = fd.lowered(op)
		}
	default:
		if err = v.Check(op); err == nil {
			fd.pairs = fd.low.AppendSync(fd.pairs[:0], op)
			err = fd.lowered(op)
		}
	}
	return err
}

// lowered hands on the acquire+release pairs op lowered to.
func (fd *Feed) lowered(op trace.Op) error {
	for _, p := range fd.pairs {
		if fd.maxClock != 0 {
			if err := fd.tick(op, p.T); err != nil {
				return err
			}
		}
		if t := fd.V.Ordinal(p.T); fd.front != nil {
			fd.front.Acquire(t, p.M)
			fd.front.Release(t, p.M)
		} else {
			fd.m.Acquire(t, p.M)
			fd.m.Release(t, p.M)
		}
	}
	return nil
}

// tick counts one increment of thread t's clock for op, which the
// validator has just admitted, or fails op if the increment would take the
// clock past maxClock.
func (fd *Feed) tick(op trace.Op, t epoch.Tid) error {
	o := int(fd.V.Ordinal(t))
	for o >= len(fd.ticks) {
		fd.ticks = append(fd.ticks, 0)
	}
	if 1+fd.ticks[o] == fd.maxClock {
		return &trace.ClockRangeError{Index: fd.V.Count() - 1, Op: op, Tid: t, Max: fd.maxClock}
	}
	fd.ticks[o]++
	return nil
}
