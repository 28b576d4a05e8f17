//go:build vftmc

package core

import (
	"fmt"

	"repro/internal/epoch"
	"repro/internal/kernel"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/vc"
)

// This file is compiled only under the vftmc build tag, by
// internal/reduction's interleaving explorer: it makes each shared action
// of a VarState a scheduling point, and gives the explorer one detector
// whose variable 0 and threads it can set up and read back. mc_off.go is
// the default build's twin.

// MCAction names one shared action of a VarState.
type MCAction = mcAction

// The shared actions (see their definitions in v15.go).
const (
	MCLoadR      = mcLoadR
	MCLoadW      = mcLoadW
	MCLoadV      = mcLoadV
	MCReadEntry  = mcReadEntry
	MCReadVec    = mcReadVec
	MCWriteEntry = mcWriteEntry
	MCStoreR     = mcStoreR
	MCStoreW     = mcStoreW
	MCStoreV     = mcStoreV
	MCLock       = mcLock
	MCUnlock     = mcUnlock
)

// MCHook, when set, runs before every shared action a handler takes; t is
// the vector entry of an entry action. The explorer's hook hands the turn
// to internal/sched.
var MCHook func(a MCAction, t epoch.Tid)

// MCDropLock makes the optimized VarState's lock and unlock do nothing:
// the slow paths of v1.5, v2 and FT-Mutex run unsynchronized. It is a
// planted bug that the explorer must report.
var MCDropLock bool

func mcStep(a mcAction, t epoch.Tid) {
	if MCHook != nil {
		MCHook(a, t)
	}
}

func (sx *atomicVarState) lock() {
	if !MCDropLock {
		mcStep(mcLock, 0)
		sx.mu.Lock()
	}
}

func (sx *atomicVarState) unlock() {
	if !MCDropLock {
		mcStep(mcUnlock, 0)
		sx.mu.Unlock()
	}
}

func (sx *v1VarState) lock()   { mcStep(mcLock, 0); sx.mu.Lock() }
func (sx *v1VarState) unlock() { mcStep(mcUnlock, 0); sx.mu.Unlock() }

// MCVar is one variable's shadow state: R, W and the read vector, nil
// before the first Share transition.
type MCVar struct {
	R, W epoch.Epoch
	V    *kernel.ReadVec
}

// MCRun is a detector set up for one explored execution: thread i holds
// clock i of NewMCRun's clocks, and variable 0 holds its state.
type MCRun struct {
	d    Detector
	base *syncBase
	get  func() MCVar
}

// NewMCRun builds the named variant (vft-v1, vft-v1.5, vft-v2 or
// ft-mutex) with thread i's clock set to clocks[i] (entry j is j's epoch)
// and variable 0 set to v.
func NewMCRun(variant string, clocks [][]epoch.Epoch, v MCVar) (*MCRun, error) {
	d, err := New(variant, Config{})
	if err != nil {
		return nil, err
	}
	run := &MCRun{d: d}
	var vec kernel.ReadVec
	if v.V != nil {
		vec = append(vec, *v.V...)
	}
	atomicVar := func(b *syncBase, vars *shadow.Table[atomicVarState]) {
		sx := vars.Get(0)
		sx.r.Store(uint64(v.R))
		sx.w.Store(uint64(v.W))
		if vec != nil {
			sx.v.Store(&vec)
		}
		run.base = b
		run.get = func() MCVar {
			return MCVar{R: epoch.Epoch(sx.r.Load()), W: epoch.Epoch(sx.w.Load()), V: sx.v.Load()}
		}
	}
	switch d := d.(type) {
	case *V1:
		sx := d.vars.Get(0)
		sx.r, sx.w, sx.v = v.R, v.W, vec
		run.base = &d.syncBase
		run.get = func() MCVar {
			m := MCVar{R: sx.r, W: sx.w}
			if sx.v != nil {
				m.V = &sx.v
			}
			return m
		}
	case *V15:
		atomicVar(&d.syncBase, d.vars)
	case *V2:
		atomicVar(&d.syncBase, d.vars)
	case *FTMutex:
		atomicVar(&d.syncBase, d.vars)
	default:
		return nil, fmt.Errorf("core: %s is not an explorable variant", variant)
	}
	for i, c := range clocks {
		st := run.base.thread(epoch.Tid(i))
		st.vc = vc.FromSnapshot(append([]epoch.Epoch(nil), c...))
		st.refresh()
	}
	return run, nil
}

// Access runs thread t's read or write of variable 0.
func (r *MCRun) Access(t epoch.Tid, write bool) {
	if write {
		r.d.Write(t, 0)
	} else {
		r.d.Read(t, 0)
	}
}

// Var returns variable 0's current state. Between the explorer's
// scheduling points no handler is running, so the loads are exact.
func (r *MCRun) Var() MCVar { return r.get() }

// Rule returns the rule thread t's access counted, or spec.RuleNone
// before it has counted one.
func (r *MCRun) Rule(t epoch.Tid) spec.Rule {
	for rule, n := range r.base.thread(t).rules {
		if n > 0 {
			return spec.Rule(rule)
		}
	}
	return spec.RuleNone
}
