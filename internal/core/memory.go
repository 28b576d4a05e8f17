package core

import "repro/internal/vc"

// ShadowSized is implemented by detectors that can report the size of
// their shadow state. The number is a semantic footprint — bytes of
// epochs, vector-clock entries and per-entity fixed costs actually
// allocated — not a heap measurement, so it is deterministic and
// comparable across detectors. This quantifies the claim behind
// FastTrack's epochs (inherited by VerifiedFT): most variables need O(1)
// shadow space instead of a full O(threads) vector clock per variable.
type ShadowSized interface {
	// ShadowBytes returns the current shadow-state footprint. Call at
	// quiescence.
	ShadowBytes() uint64
}

const (
	epochBytes   = 8
	pointerBytes = 8
)

// vcBytes is the footprint of a vector clock: its entries plus the slice
// header.
func vcBytes(v *vc.VC) uint64 {
	return uint64(v.Size())*epochBytes + 3*pointerBytes
}

// clockTableBytes is the footprint of the thread and lock state of a
// vector-clock detector: every clock, plus each thread's cached epoch.
func clockTableBytes(threads, locks []*vc.VC) uint64 {
	total := uint64(len(threads)) * epochBytes // the cached epochs
	for _, tables := range [][]*vc.VC{threads, locks} {
		for _, c := range tables {
			total += vcBytes(c)
		}
	}
	return total
}

func (b *syncBase) threadLockBytes() uint64 { return clockTableBytes(b.clocks()) }

// ShadowBytes implements ShadowSized for VerifiedFT-v1.
func (d *V1) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += 2*epochBytes + uint64(len(sx.v))*epochBytes + 3*pointerBytes
	}
	return total
}

// epochVarBytes is the fixed part of the optimized VarState: two epochs
// and the vector pointer.
const epochVarBytes = 2*epochBytes + pointerBytes

// atomicVarBytes is the footprint of the optimized VarState: the fixed
// part, and the vector if the Share transition allocated it.
func atomicVarBytes(sx *atomicVarState) uint64 {
	total := uint64(epochVarBytes)
	if p := sx.v.Load(); p != nil {
		total += uint64(len(*p)) * epochBytes
	}
	return total
}

// EpochShadowBytes is ShadowBytes for a detector that keeps the optimized
// VarState's fields without its synchronization (internal/parcheck's
// offline machine): vars variables whose read vectors hold vecEntries
// entries in all, behind the given thread and lock clocks. It is
// threadLockBytes plus atomicVarBytes per variable, so shadow.bytes means
// one thing whichever of the two produced it.
func EpochShadowBytes(threads, locks []*vc.VC, vars, vecEntries int) uint64 {
	return clockTableBytes(threads, locks) + uint64(vars)*epochVarBytes + uint64(vecEntries)*epochBytes
}

// ShadowBytes implements ShadowSized for VerifiedFT-v1.5.
func (d *V15) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += atomicVarBytes(sx)
	}
	return total
}

// ShadowBytes implements ShadowSized for VerifiedFT-v2.
func (d *V2) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += atomicVarBytes(sx)
	}
	return total
}

// ShadowBytes implements ShadowSized for FT-Mutex.
func (d *FTMutex) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += atomicVarBytes(sx)
	}
	return total
}

// ShadowBytes implements ShadowSized for FT-CAS: both epochs share one
// word; the vector is lock-protected and plain.
func (d *FTCAS) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += epochBytes // the packed (R,W) word
		total += uint64(len(sx.v)) * epochBytes
	}
	return total
}

// Compile-time interface checks.
var (
	_ ShadowSized = (*V1)(nil)
	_ ShadowSized = (*V15)(nil)
	_ ShadowSized = (*V2)(nil)
	_ ShadowSized = (*FTMutex)(nil)
	_ ShadowSized = (*FTCAS)(nil)
)
