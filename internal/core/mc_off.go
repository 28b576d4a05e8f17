//go:build !vftmc

package core

import "repro/internal/epoch"

// mcStep marks a VarState's shared action (v15.go). In this, the default
// build, it is empty and every call inlines away, leaving at most the
// compiler's one-byte inline-mark NOP. mc_on.go is the vftmc twin.
func mcStep(mcAction, epoch.Tid) {}

func (sx *atomicVarState) lock()   { sx.mu.Lock() }
func (sx *atomicVarState) unlock() { sx.mu.Unlock() }
func (sx *v1VarState) lock()       { sx.mu.Lock() }
func (sx *v1VarState) unlock()     { sx.mu.Unlock() }
