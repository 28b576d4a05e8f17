// Package sample implements the per-variable sampling policy of the
// production-overhead detector tier.
//
// The tier's contract rests on one property of the precise detectors: the
// read/write handlers mutate only the accessed variable's shadow state —
// thread and lock clocks evolve exclusively through the synchronization
// handlers. Dropping every access to a chosen set of variables therefore
// leaves the clock evolution bit-identical, and the sampled run is exactly
// the precise run restricted to the sampled variables: at rate 1.0 the
// report lists coincide, and at any lower rate the sampled reports are the
// precise reports filtered to sampled variables (re-numbered from zero) —
// a subset by construction, never a new false positive.
//
// The policy itself is a pure function of (seed, variable id): variable x
// is sampled iff the top 32 bits of a splitmix64-style hash of (seed, x)
// fall below rate·2³². Purity is what makes the whole stack agree — an
// online detector, the offline check and a server-side check of the same
// upload all decide identically from the same seed, so their
// report lists stay byte-identical, and racing deciders in a concurrent
// run can only write the same answer twice.
package sample

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// DefaultSeed is the sampling seed used when none is given. A fixed
// default keeps runs reproducible: the same trace checked anywhere at the
// same rate reports the same races.
const DefaultSeed uint64 = 1

// DefaultRate is the sampling rate of the bare "sampled" variant
// spelling: cheap enough for always-on production use, frequent enough
// that hot races surface within a few deployments.
const DefaultRate = 0.01

// Policy is a deterministic per-variable Bernoulli sampling decision.
// The zero value samples nothing; Rate >= 1 samples everything.
type Policy struct {
	// Rate is the per-variable sampling probability in [0, 1].
	Rate float64
	// Seed keys the hash; 0 is a valid seed (callers wanting the default
	// reproducible behavior should use DefaultSeed).
	Seed uint64
}

// Validate rejects rates outside [0, 1] (including NaN). The bound is a
// correctness matter, not taste: the subset guarantee is stated against
// the precise tier at rate 1.0, so there is nothing above 1 to mean.
func (p Policy) Validate() error {
	if math.IsNaN(p.Rate) || p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("sample: rate must be in [0, 1], got %v", p.Rate)
	}
	return nil
}

// threshold maps the rate onto the top-32-bit hash comparison: a hash's
// upper word is uniform on [0, 2³²), so comparing it against rate·2³²
// samples each variable independently with probability rate (to within
// 2⁻³², and exactly "always"/"never" at the endpoints because the upper
// word never reaches 2³²).
func (p Policy) threshold() uint64 {
	t := p.Rate * (1 << 32)
	if t <= 0 || math.IsNaN(t) {
		return 0
	}
	if t >= (1 << 32) {
		return 1 << 32
	}
	return uint64(t)
}

// Sampled reports whether the policy selects variable x. It is a pure
// function of (Seed, Rate, x): every component of the stack that asks gets
// the same answer.
func (p Policy) Sampled(x trace.Var) bool {
	return mix(p.Seed, uint64(x))>>32 < p.threshold()
}

// mix is the splitmix64 finalizer over a seed-offset variable id — cheap,
// stateless, and well-distributed in its top bits (which the threshold
// comparison uses).
func mix(seed, x uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(x+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Decision words cached by Words. A word is either Undecided, Suppressed,
// or a sampled variable's dense inner id encoded as id+2 (decoded by
// SampledID). Packing the decision and the remapped id into one word is
// what makes the hot path a single shadow-word check: one atomic load
// answers both "is x sampled?" and "under which id does its full shadow
// state live?".
const (
	// Undecided marks a variable not yet looked at.
	Undecided uint32 = 0
	// Suppressed marks a variable the policy rejected.
	Suppressed uint32 = 1
	// firstID is the word value of sampled inner id 0.
	firstID uint32 = 2
)

// SampledID decodes a decision word: the dense inner id and true for a
// sampled variable, (0, false) for Undecided or Suppressed.
func SampledID(word uint32) (int, bool) {
	if word < firstID {
		return 0, false
	}
	return int(word - firstID), true
}

// Words is the per-variable decision table: a dense, grow-on-demand array
// of decision words, read lock-free. This is the only shadow state an
// unsampled variable ever owns — four bytes — which is the tier's
// lazy-materialization rule: clocks, epochs and read vectors exist only
// for variables whose decision word carries an inner id.
//
// Decisions are cached, not recomputed: the steady-state cost of an access
// to a decided variable is one atomic load and a compare. The cold
// undecided path takes a mutex, but the value it writes is the pure
// Policy function of x, so concurrent deciders are idempotent and the
// discipline mirrors shadow.Table's init-once contract.
type Words struct {
	pol Policy

	mu   sync.Mutex
	p    atomic.Pointer[[]uint32]
	vars []trace.Var // inner id -> original variable id, under mu

	sampled, suppressed uint64 // decided-variable counts, under mu
}

// NewWords returns a decision table for pol, pre-sized for capacity
// variable ids (grown on demand past it).
func NewWords(pol Policy, capacity int) *Words {
	if capacity < 1 {
		capacity = 1
	}
	w := &Words{pol: pol}
	slice := make([]uint32, capacity)
	w.p.Store(&slice)
	return w
}

// Policy returns the table's policy.
func (w *Words) Policy() Policy { return w.pol }

// Slice returns the current decision-word array for lock-free reads.
// Entries must be read with atomic.LoadUint32; an id beyond the slice or
// an Undecided entry means the caller must fall back to Word. The method
// exists for hot paths that cannot afford a function call per access:
// it is small enough to inline, so a caller can do the decided-word fast
// path in its own body and call Word only on first touch.
func (w *Words) Slice() []uint32 { return *w.p.Load() }

// Word returns the decision word for variable x, deciding (and growing
// the table) on first touch. The decided path — every access after a
// variable's first — is one atomic slice load, one bounds check and one
// atomic word load.
func (w *Words) Word(x trace.Var) uint32 {
	s := *w.p.Load()
	if i := int(uint32(x)); i < len(s) {
		if v := atomic.LoadUint32(&s[i]); v != Undecided {
			return v
		}
	}
	return w.decide(x)
}

// decide computes and publishes x's decision word under the mutex,
// assigning the next dense inner id when the policy samples x.
func (w *Words) decide(x trace.Var) uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := int(uint32(x))
	s := *w.p.Load()
	if i >= len(s) {
		newLen := len(s) * 2
		if newLen <= i {
			newLen = i + 1
		}
		grown := make([]uint32, newLen)
		for j := range s {
			grown[j] = atomic.LoadUint32(&s[j])
		}
		w.p.Store(&grown)
		s = grown
	}
	if v := atomic.LoadUint32(&s[i]); v != Undecided { // raced with another decider
		return v
	}
	var v uint32
	if w.pol.Sampled(x) {
		if len(w.vars) > int(^uint32(0))-int(firstID)-1 {
			panic("sample: inner id space exhausted")
		}
		v = firstID + uint32(len(w.vars))
		w.vars = append(w.vars, x)
		w.sampled++
	} else {
		v = Suppressed
		w.suppressed++
	}
	atomic.StoreUint32(&s[i], v)
	return v
}

// OriginalVar maps a dense inner id back to the variable id it stands
// for. It must only be called with ids previously handed out by Word.
func (w *Words) OriginalVar(id int) trace.Var {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.vars[id]
}

// Counts returns how many decided variables were sampled and suppressed.
// Call at quiescence for exact numbers (mid-run it is a consistent
// point-in-time reading).
func (w *Words) Counts() (sampled, suppressed uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sampled, w.suppressed
}

// Bytes is the decision table's shadow footprint: four bytes per covered
// variable id plus the id remap.
func (w *Words) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return uint64(len(*w.p.Load()))*4 + uint64(len(w.vars))*8
}

// ParseRate parses a sampling-rate spelling ("0.01", "1", "1.0") and
// validates it against the policy bounds.
func ParseRate(s string) (float64, error) {
	rate, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sample: bad rate %q", s)
	}
	if err := (Policy{Rate: rate}).Validate(); err != nil {
		return 0, err
	}
	return rate, nil
}

// ParseVariant resolves the "sampled" detector spelling wherever variant
// names are parsed: "sampled" is vft-v2 at DefaultRate, "sampled:<rate>"
// selects the rate explicitly ("sampled:0.1"). Any other name passes
// through unchanged with a nil policy, so callers can feed every variant
// string they accept through this one function.
func ParseVariant(name string) (base string, pol *Policy, err error) {
	if name != "sampled" && !strings.HasPrefix(name, "sampled:") {
		return name, nil, nil
	}
	rate := DefaultRate
	if rest, ok := strings.CutPrefix(name, "sampled:"); ok {
		if rate, err = ParseRate(rest); err != nil {
			return "", nil, fmt.Errorf("sample: variant %q: %w", name, err)
		}
	}
	return "vft-v2", &Policy{Rate: rate, Seed: DefaultSeed}, nil
}

// Resolve is the one policy resolver behind every entry point that takes
// a variant name and sampling settings (library options, CLI flags, the
// server's query parameters): it splits a "sampled[:rate]" spelling off
// variant, lets an explicit rate (non-nil) beat the spelling's, takes
// seed 0 to mean DefaultSeed, and validates the result. pol is nil when
// neither the spelling nor rate selects the tier.
func Resolve(variant string, rate *float64, seed uint64) (base string, pol *Policy, err error) {
	base, pol, err = ParseVariant(variant)
	if err != nil {
		return "", nil, err
	}
	if rate != nil {
		pol = &Policy{Rate: *rate}
	}
	if pol == nil {
		return base, nil, nil
	}
	pol.Seed = seed
	if seed == 0 {
		pol.Seed = DefaultSeed
	}
	return base, pol, pol.Validate()
}
